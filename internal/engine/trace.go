package engine

// Traced submissions: the Submit* family with an obs.Trace threaded
// through. A nil trace makes every traced entry point behave exactly
// like its untraced twin — one nil check per call — so callers can
// thread whatever obs.From(ctx) returned without branching themselves.
//
// The engine is where per-query spans and counters converge: the
// worker measures queue wait and run time (engine.go), and after the
// backend answers, foldStats lifts the core.SearchStats the search
// already computed (filter/refine split, nodes, candidates, cold-tier
// detail) into the trace. Backends that fan out across shards can
// additionally implement TracedBackend to attach per-shard child
// spans.

import (
	"brepartition/internal/core"
	"brepartition/internal/obs"
)

// TracedBackend is the optional trace-aware search surface. The
// sharded index implements it to record per-shard child spans; plain
// core backends don't need to — foldStats captures everything a
// single-shard search knows from its result stats.
type TracedBackend interface {
	SearchTraced(tr *obs.Trace, q []float64, k int) (core.Result, error)
}

// SubmitTraced is Submit with per-stage span and counter recording
// into tr. A nil tr is exactly Submit.
func (e *Engine) SubmitTraced(tr *obs.Trace, q []float64, k int) *Future {
	if tr == nil {
		return e.Submit(q, k)
	}
	return e.submitTraced(tr, func() (core.Result, bool, error) {
		return e.searchOneTraced(tr, q, k)
	})
}

// SubmitApproxTraced is SubmitApprox with trace recording.
func (e *Engine) SubmitApproxTraced(tr *obs.Trace, q []float64, k int, p float64) *Future {
	if tr == nil {
		return e.SubmitApprox(q, k, p)
	}
	ab, ok := e.ix.(approxBackend)
	return e.submitTraced(tr, func() (core.Result, bool, error) {
		if !ok {
			return core.Result{}, false, ErrNoApprox
		}
		res, err := ab.SearchApprox(q, k, p)
		if err == nil {
			foldStats(tr, res.Stats)
		}
		return res, false, err
	})
}

// SubmitRangeTraced is SubmitRange with trace recording.
func (e *Engine) SubmitRangeTraced(tr *obs.Trace, q []float64, r float64) *Future {
	if tr == nil {
		return e.SubmitRange(q, r)
	}
	rb, ok := e.ix.(rangeBackend)
	return e.submitTraced(tr, func() (core.Result, bool, error) {
		if !ok {
			return core.Result{}, false, ErrNoRange
		}
		items, stats, err := rb.RangeSearch(q, r)
		if err == nil {
			foldStats(tr, stats)
		}
		return core.Result{Items: items, Stats: stats}, false, err
	})
}

// SubmitFilterTraced is SubmitFilter with trace recording.
func (e *Engine) SubmitFilterTraced(tr *obs.Trace, q []float64, k int, keep func(id int) bool) *Future {
	if tr == nil {
		return e.SubmitFilter(q, k, keep)
	}
	fb, ok := e.ix.(filterBackend)
	return e.submitTraced(tr, func() (core.Result, bool, error) {
		if !ok {
			return core.Result{}, false, ErrNoFilter
		}
		res, err := fb.SearchFilter(q, k, keep)
		if err == nil {
			foldStats(tr, res.Stats)
		}
		return res, false, err
	})
}

// searchOneTraced is searchOne with trace recording: cache hits are
// marked (their scan counters stay zero — the work happened when the
// entry was populated), misses run through SearchTraced when the
// backend offers it, and either way the result's stats fold into tr.
func (e *Engine) searchOneTraced(tr *obs.Trace, q []float64, k int) (res core.Result, cached bool, err error) {
	ver := e.ix.Version()
	if e.cache != nil {
		if res, ok := e.cache.get(ver, k, q); ok {
			tr.MarkCached()
			return res, true, nil
		}
	}
	switch {
	case e.cfg.SubWorkers > 1:
		res, err = e.ix.SearchParallel(q, k, e.cfg.SubWorkers)
	default:
		if tb, ok := e.ix.(TracedBackend); ok {
			res, err = tb.SearchTraced(tr, q, k)
		} else {
			res, err = e.ix.Search(q, k)
		}
	}
	if err != nil {
		return res, false, err
	}
	foldStats(tr, res.Stats)
	if e.cache != nil && e.ix.Version() == ver {
		// Same snapshot-stability rule as searchOne: only cache when the
		// version held across the search.
		e.cache.put(ver, k, q, res)
	}
	return res, false, nil
}

// foldStats lifts one result's search stats into the trace: the
// filter/refine/cold wall-time split becomes sub-spans of Run, the
// work counters accumulate.
func foldStats(tr *obs.Trace, st core.SearchStats) {
	if tr == nil {
		return
	}
	tr.AddSpan(obs.StageScan, st.FilterTime)
	tr.AddSpan(obs.StageRefine, st.RefineTime)
	tr.AddSpan(obs.StageCold, st.ColdTime)
	tr.Add(obs.Counters{
		Nodes:         int64(st.NodesVisited),
		Leaves:        int64(st.LeavesVisited),
		BisectSteps:   int64(st.BisectSteps),
		Candidates:    int64(st.Candidates),
		DistanceComps: int64(st.DistanceComps),
		ExactComps:    int64(st.ExactComps),
		PageReads:     int64(st.PageReads),
		ColdScanned:   int64(st.ColdScanned),
		ColdPruned:    int64(st.ColdPruned),
		ColdFaults:    int64(st.ColdPageFaults),
		ColdHits:      int64(st.ColdCacheHits),
	})
}

// Package engine is the concurrent batch query layer on top of the core
// BrePartition index: it composes query-level parallelism (a bounded pool
// of worker goroutines, one in-flight query each) with the per-subspace
// fan-out the core index already provides (SearchParallel), shares an LRU
// result cache across in-flight queries, and aggregates service-level
// counters (queries, errors, cache hits, page reads). Latency is not
// kept here: the serving layer's stage histograms (internal/obs) are the
// one latency source.
//
// The engine relies on the core index's locking discipline: searches take
// the index's shared lock, mutations (Insert/Delete) its exclusive lock,
// so any number of engine workers may run against an index that is being
// mutated concurrently and each query sees one consistent snapshot. Cached
// results are tagged with the index version observed during the search and
// are never served across a mutation.
//
// Hot-path cost model: each worker's query runs through the backend's
// pooled per-query SearchContext and the monomorphized divergence kernel
// the index picked at build time (internal/kernel), so a saturated batch
// performs no interface dispatch in its distance loops and no steady-state
// allocation beyond each query's result slice — the engine's own overhead
// is one job, one future, and the shared-cache bookkeeping per query.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"brepartition/internal/core"
	"brepartition/internal/obs"
	"brepartition/internal/topk"
)

// Backend is the index surface the engine schedules over. Both the
// single-process core index (*core.Index) and the sharded scatter-gather
// index (*shard.Index) implement it; the engine is agnostic to which one
// it drives, as long as the backend's methods are safe for concurrent use
// and Version changes on every mutation (the result-cache invariant).
type Backend interface {
	Search(q []float64, k int) (core.Result, error)
	SearchParallel(q []float64, k, workers int) (core.Result, error)
	Version() uint64
}

// rangeBackend is the optional range-query surface; SubmitRange requires
// the backend to implement it (both core and shard indexes do).
type rangeBackend interface {
	RangeSearch(q []float64, r float64) ([]topk.Item, core.SearchStats, error)
}

// approxBackend is the optional probabilistic-guarantee surface;
// SubmitApprox requires the backend to implement it (core, shard, and
// durable indexes all do).
type approxBackend interface {
	SearchApprox(q []float64, k int, p float64) (core.Result, error)
}

// MutableBackend is the optional mutation surface. The engine routes
// Insert/Delete through itself so services can hand one Engine handle to
// both read and write paths: mutations are counted in the aggregate stats
// and the result cache invalidates automatically (it keys on Version,
// which every mutation advances).
type MutableBackend interface {
	Backend
	Insert(p []float64) (int, error)
	Delete(id int) bool
}

// durableDeleter is the Delete shape of a durability-wrapped index, which
// also reports WAL errors. The engine prefers it over MutableBackend's
// bool-only Delete when the backend offers it.
type durableDeleter interface {
	Delete(id int) (bool, error)
}

// ErrNoMutate reports Insert/Delete against a read-only backend.
var ErrNoMutate = errors.New("engine: backend does not support mutations")

// Config tunes the engine. The zero value asks for defaults.
type Config struct {
	// Workers bounds the number of concurrently executing queries
	// (0 = GOMAXPROCS).
	Workers int
	// SubWorkers is the per-query subspace fan-out: 0 or 1 runs each
	// query's filter sequentially (maximizing query-level parallelism,
	// the right choice for saturated batch workloads); >1 additionally
	// fans each query's M range queries out via SearchParallel (the right
	// choice for low-QPS latency-sensitive traffic).
	SubWorkers int
	// CacheSize is the result-cache capacity in entries (0 = 1024,
	// negative disables caching).
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	return c
}

// Engine schedules queries against one core index. Submitted queries go
// onto a FIFO queue drained by at most Workers worker goroutines; workers
// are started on demand and exit when the queue empties, so an idle engine
// holds no goroutines and needs no Close.
type Engine struct {
	ix    Backend
	cfg   Config
	cache *resultCache

	qmu     sync.Mutex
	queue   []job
	running int        // worker goroutines alive, ≤ cfg.Workers
	idle    *sync.Cond // broadcast when queue empties and running drops to 0
	closed  bool       // Close called: new submissions fail with ErrClosed

	mu         sync.Mutex
	queries    int64
	errors     int64
	mutations  int64
	pageReads  int64
	candidates int64
}

// job is one queued unit of work: run answers it (a kNN search consulting
// the shared cache, or a range query), f receives the result. tr, when
// non-nil, receives the queue-wait and run spans the worker measures.
type job struct {
	run func() (res core.Result, cached bool, err error)
	f   *Future
	tr  *obs.Trace
}

// New creates an engine over any backend. cfg may be the zero value for
// defaults.
func New(ix Backend, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{ix: ix, cfg: cfg}
	e.idle = sync.NewCond(&e.qmu)
	if cfg.CacheSize > 0 {
		e.cache = newResultCache(cfg.CacheSize)
	}
	return e
}

// Workers returns the effective query-level concurrency bound.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Future is a handle to one submitted query.
type Future struct {
	done chan struct{}
	res  core.Result
	err  error

	// Timing, written by submit (enq) and the worker (queued, runDur)
	// before done closes; valid to read only after Wait/WaitContext
	// observed completion.
	enq    time.Time
	queued time.Duration
	runDur time.Duration
}

// QueueWait returns how long the job sat in the engine queue before a
// worker picked it up. Valid after the future resolved.
func (f *Future) QueueWait() time.Duration { return f.queued }

// RunTime returns the worker's wall time for the job. Valid after the
// future resolved.
func (f *Future) RunTime() time.Duration { return f.runDur }

// Wait blocks until the query completes and returns its result.
func (f *Future) Wait() (core.Result, error) {
	<-f.done
	return f.res, f.err
}

// WaitContext is Wait with a deadline: if ctx expires first it returns
// the context's error while the query keeps running to completion in the
// background (its work is already scheduled; a later Wait still gets the
// answer). Serving layers use this to honor per-request deadlines.
func (f *Future) WaitContext(ctx context.Context) (core.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// Submit enqueues one query and returns immediately. The query runs as
// soon as a worker slot frees up.
func (e *Engine) Submit(q []float64, k int) *Future {
	return e.submit(func() (core.Result, bool, error) { return e.searchOne(q, k) })
}

// SubmitRange enqueues one range query: the Future resolves to a Result
// whose Items are every point with D_f(x, q) ≤ r, ascending. Range results
// bypass the result cache (it is keyed on k-kNN queries) and require the
// backend to support RangeSearch.
func (e *Engine) SubmitRange(q []float64, r float64) *Future {
	rb, ok := e.ix.(rangeBackend)
	return e.submit(func() (core.Result, bool, error) {
		if !ok {
			return core.Result{}, false, ErrNoRange
		}
		items, stats, err := rb.RangeSearch(q, r)
		return core.Result{Items: items, Stats: stats}, false, err
	})
}

// ErrNoRange reports a SubmitRange against a backend without RangeSearch.
var ErrNoRange = errors.New("engine: backend does not support range queries")

// ErrNoApprox reports a SubmitApprox against a backend without
// SearchApprox.
var ErrNoApprox = errors.New("engine: backend does not support approximate search")

// ErrClosed reports a submission against a closed engine.
var ErrClosed = errors.New("engine: closed")

// SubmitApprox enqueues one approximate query with probability guarantee
// p ∈ (0,1]. Approx results bypass the result cache (it is keyed on exact
// kNN queries) and require the backend to support SearchApprox.
func (e *Engine) SubmitApprox(q []float64, k int, p float64) *Future {
	ab, ok := e.ix.(approxBackend)
	return e.submit(func() (core.Result, bool, error) {
		if !ok {
			return core.Result{}, false, ErrNoApprox
		}
		res, err := ab.SearchApprox(q, k, p)
		return res, false, err
	})
}

// filterBackend is the optional filtered-search surface; SubmitFilter
// requires the backend to implement it (core, shard, durable, and handle
// all do).
type filterBackend interface {
	SearchFilter(q []float64, k int, keep func(id int) bool) (core.Result, error)
}

// ErrNoFilter reports a SubmitFilter against a backend without
// SearchFilter.
var ErrNoFilter = errors.New("engine: backend does not support filtered search")

// SubmitFilter enqueues one filtered query: the exact kNN among the ids
// keep admits. Filtered results bypass the result cache — the cache is
// keyed on (version, k, q) and knows nothing about predicates, and two
// queries with the same coordinates but different filters must never
// alias.
func (e *Engine) SubmitFilter(q []float64, k int, keep func(id int) bool) *Future {
	fb, ok := e.ix.(filterBackend)
	return e.submit(func() (core.Result, bool, error) {
		if !ok {
			return core.Result{}, false, ErrNoFilter
		}
		res, err := fb.SearchFilter(q, k, keep)
		return res, false, err
	})
}

func (e *Engine) submit(run func() (core.Result, bool, error)) *Future {
	return e.submitTraced(nil, run)
}

func (e *Engine) submitTraced(tr *obs.Trace, run func() (core.Result, bool, error)) *Future {
	f := &Future{done: make(chan struct{}), enq: time.Now()}
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		f.err = ErrClosed
		close(f.done)
		return f
	}
	// The job writes spans/counters into tr until the worker finishes —
	// possibly after the submitter stopped waiting at its deadline and
	// dropped its own reference. Hold one for the
	// job's lifetime; the worker releases it after its last write.
	tr.Retain()
	e.queue = append(e.queue, job{run: run, f: f, tr: tr})
	if e.running < e.cfg.Workers {
		e.running++
		go e.worker()
	}
	e.qmu.Unlock()
	return f
}

// QueueDepth returns the number of submitted queries not yet picked up by
// a worker — the backlog an admission-control layer sheds on.
func (e *Engine) QueueDepth() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue)
}

// InFlight returns the number of worker goroutines currently executing
// queries.
func (e *Engine) InFlight() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return e.running
}

// Drain blocks until every submitted query has completed and all workers
// have gone idle. Queries submitted while Drain waits are drained too; it
// is the caller's job to stop submitting first (Close does both).
func (e *Engine) Drain() {
	e.qmu.Lock()
	for len(e.queue) > 0 || e.running > 0 {
		e.idle.Wait()
	}
	e.qmu.Unlock()
}

// Close marks the engine closed — every later Submit resolves its Future
// immediately with ErrClosed — and drains in-flight queries: when Close
// returns, no engine goroutine is running and every previously returned
// Future is resolved. Close is idempotent; the backend index is not
// touched (it may outlive the engine or be shared).
func (e *Engine) Close() error {
	e.qmu.Lock()
	e.closed = true
	for len(e.queue) > 0 || e.running > 0 {
		e.idle.Wait()
	}
	e.qmu.Unlock()
	return nil
}

// worker drains the queue one job at a time and exits when it is empty.
func (e *Engine) worker() {
	for {
		e.qmu.Lock()
		if len(e.queue) == 0 {
			e.queue = nil // release the drained backing array
			e.running--
			if e.running == 0 {
				e.idle.Broadcast()
			}
			e.qmu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue[0] = job{} // drop references for the GC
		e.queue = e.queue[1:]
		e.qmu.Unlock()

		start := time.Now()
		j.f.queued = start.Sub(j.f.enq)
		res, cached, err := j.run()
		dur := time.Since(start)
		j.f.runDur = dur
		if j.tr != nil {
			j.tr.AddSpan(obs.StageQueue, j.f.queued)
			j.tr.AddSpan(obs.StageRun, dur)
		}
		j.tr.Release() // pairs with the Retain in submitTraced; last trace write was above
		j.f.res, j.f.err = res, err
		e.record(res, cached, err)
		close(j.f.done)
	}
}

// BatchSearch answers all queries with k neighbours each, running up to
// Workers of them concurrently. Results arrive in query order and are
// identical to a sequential Search loop over the same index state. The
// first error (if any) is returned after every query has settled.
func (e *Engine) BatchSearch(queries [][]float64, k int) ([]core.Result, error) {
	futures := make([]*Future, len(queries))
	for i, q := range queries {
		futures[i] = e.Submit(q, k)
	}
	out := make([]core.Result, len(queries))
	var firstErr error
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[i] = res
	}
	return out, firstErr
}

// Insert routes a point insertion to the backend (which must be mutable:
// a core index, a sharded index, or a durable index — all three share one
// Insert signature). The result cache needs no explicit flush — it keys
// on the backend Version, which the mutation advances.
func (e *Engine) Insert(p []float64) (int, error) {
	b, ok := e.ix.(interface {
		Insert(p []float64) (int, error)
	})
	if !ok {
		return 0, ErrNoMutate
	}
	id, err := b.Insert(p)
	if err == nil {
		e.mu.Lock()
		e.mutations++
		e.mu.Unlock()
	}
	return id, err
}

// Delete routes a tombstone to the backend, reporting whether the id was
// live. Against a durable backend a WAL failure surfaces as the error.
func (e *Engine) Delete(id int) (bool, error) {
	var (
		ok  bool
		err error
	)
	switch b := e.ix.(type) {
	case durableDeleter:
		ok, err = b.Delete(id)
	case MutableBackend:
		ok = b.Delete(id)
	default:
		return false, ErrNoMutate
	}
	if ok && err == nil {
		e.mu.Lock()
		e.mutations++
		e.mu.Unlock()
	}
	return ok, err
}

// searchOne answers a single query, consulting the shared result cache;
// cached reports whether the answer was served without searching.
func (e *Engine) searchOne(q []float64, k int) (res core.Result, cached bool, err error) {
	ver := e.ix.Version()
	if e.cache != nil {
		if res, ok := e.cache.get(ver, k, q); ok {
			return res, true, nil
		}
	}
	if e.cfg.SubWorkers > 1 {
		res, err = e.ix.SearchParallel(q, k, e.cfg.SubWorkers)
	} else {
		res, err = e.ix.Search(q, k)
	}
	if err == nil && e.cache != nil && e.ix.Version() == ver {
		// The version did not move across the search, so the result is
		// exactly the snapshot tagged ver; safe to share. (If a mutation
		// raced the search, skip caching: the result is still correct for
		// the snapshot the search locked, but that snapshot has no stable
		// version to key on.)
		e.cache.put(ver, k, q, res)
	}
	return res, false, err
}

// record folds one finished query into the aggregate statistics. Cache
// hits count as queries but not as search work: their page reads
// happened once, when the entry was populated.
func (e *Engine) record(res core.Result, cached bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries++
	if err != nil {
		e.errors++
		return
	}
	if !cached {
		e.pageReads += int64(res.Stats.PageReads)
		e.candidates += int64(res.Stats.Candidates)
	}
}

// Stats is the aggregate service view of everything the engine answered.
type Stats struct {
	// Queries counts completed queries (including errors and cache hits).
	Queries int64
	// Errors counts queries that returned an error.
	Errors int64
	// Mutations counts successful Insert/Delete calls routed through the
	// engine.
	Mutations int64
	// CacheHits counts queries served from the shared result cache.
	CacheHits int64
	// PageReads and Candidates sum the per-query work of all non-cached
	// successful queries.
	PageReads  int64
	Candidates int64
	// QueueDepth and InFlight snapshot the scheduler at Stats time:
	// submitted-but-not-started queries and queries currently executing.
	QueueDepth int
	InFlight   int
}

// Stats snapshots the aggregate statistics.
func (e *Engine) Stats() Stats {
	e.qmu.Lock()
	depth, inflight := len(e.queue), e.running
	e.qmu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		QueueDepth: depth,
		InFlight:   inflight,
		Queries:    e.queries,
		Errors:     e.errors,
		Mutations:  e.mutations,
		PageReads:  e.pageReads,
		Candidates: e.candidates,
	}
	if e.cache != nil {
		st.CacheHits = e.cache.hitCount()
	}
	return st
}

// Package obs is the serving stack's observability layer: per-request
// stage-timing traces, fixed-bucket latency histograms, and a
// structured slow-query log. It is stdlib-only and built so that the
// tracing-off path costs nothing measurable: every method on *Trace is
// nil-safe, so untraced requests thread a nil pointer through the
// pipeline and each instrumentation point is a single predictable
// branch — no allocation, no atomic, no map lookup.
//
// Traces are pooled and reference-counted. The server acquires one per
// sampled request at admission (NewTrace, one reference), hands it down
// via context (NewContext/From), and each layer adds what it knows: the
// server records admission wait, the engine worker queue wait and run
// time, the shard fan-out per-shard
// child spans, and the engine folds the core/coldtier scan counters out
// of the result stats. Any layer that keeps writing to the trace after
// its caller may have returned — a queued engine job whose submitter
// gave up at its deadline — takes its own reference with Retain and drops it
// with Release when its last write is done. Release decrements; only
// the final Release returns the trace to the pool, so an abandoned
// request (deadline fired, handler gone) cannot have its trace recycled
// out from under a worker that is still recording into it.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of a request's life. Stages are
// sequential except Scan/Refine/Cold, which are sub-spans of Run:
// Admission+Queue+Run ≤ Total, and Scan+Refine+Cold ≤ Run.
type Stage uint8

const (
	// StageTotal is the full wall time from admission to response.
	StageTotal Stage = iota
	// StageAdmission is time spent acquiring quota/admission slots.
	StageAdmission
	// StageQueue is time queued in the engine before a worker picked
	// the job up.
	StageQueue
	// StageRun is the engine worker's wall time for the job.
	StageRun
	// StageScan is the filter phase inside Run: tree descent plus
	// candidate-bound computation.
	StageScan
	// StageRefine is the exact-distance refinement phase inside Run.
	StageRefine
	// StageCold is cold-tier time inside Run: the compressed-domain VA
	// pass plus any page faults it induced.
	StageCold

	// NumStages bounds per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"total", "admission", "queue", "run", "scan", "refine", "cold",
}

func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages enumerates all stages in pipeline order.
func Stages() [NumStages]Stage {
	var out [NumStages]Stage
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Counters are the scan-work counters a request accumulated across all
// shards it touched. They mirror core.SearchStats/coldtier.Stats but
// live here so obs depends on nothing.
type Counters struct {
	// Nodes and Leaves count BB-tree nodes and leaves visited;
	// BisectSteps counts the geodesic bisection steps spent deciding
	// which of them to prune.
	Nodes, Leaves, BisectSteps int64
	// Candidates is the number of points whose candidate bound
	// survived filtering; DistanceComps counts the divergence
	// evaluations the paper's cost model charges (filter node
	// evaluations plus one per candidate); ExactComps counts the exact
	// kernel evaluations refinement actually made, the refine screen's
	// survivors.
	Candidates, DistanceComps, ExactComps int64
	// PageReads counts disk/cold pages read.
	PageReads int64
	// Cold-tier detail: points scanned in the compressed domain,
	// points pruned by VA bounds, pages faulted in, block-cache hits.
	ColdScanned, ColdPruned, ColdFaults, ColdHits int64
}

// ShardSpan is one shard's contribution to a scatter-gather query.
type ShardSpan struct {
	Shard      int
	Queue, Run time.Duration
	Items      int // results the shard returned before the merge
	Candidates int // filter-phase survivors on that shard
}

// maxShardSpans bounds the per-trace shard slice so a pooled trace
// cannot grow without bound under pathological fan-outs.
const maxShardSpans = 64

// Trace accumulates one request's stage spans, counters, and per-shard
// child spans. All methods are safe on a nil receiver (they do
// nothing), safe for concurrent use, and allocation-free after the
// trace leaves the pool warm.
type Trace struct {
	id     uint64
	refs   atomic.Int32
	k, nq  int64
	cached atomic.Bool

	spans [NumStages]atomic.Int64 // nanoseconds

	nodes, leaves, bisectSteps, candidates, distComps, exactComps, pageReads atomic.Int64
	coldScanned, coldPruned, coldFaults, coldHits                            atomic.Int64

	mu     sync.Mutex
	shards []ShardSpan
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace returns a reset pooled trace carrying id, holding one
// reference (the creator's). The reset is safe without t.mu: a trace
// only reaches the pool after its last reference dropped, so no other
// goroutine can touch it here.
func NewTrace(id uint64) *Trace {
	t := tracePool.Get().(*Trace)
	t.id = id
	t.refs.Store(1)
	t.k, t.nq = 0, 0
	t.cached.Store(false)
	for i := range t.spans {
		t.spans[i].Store(0)
	}
	t.nodes.Store(0)
	t.leaves.Store(0)
	t.bisectSteps.Store(0)
	t.candidates.Store(0)
	t.distComps.Store(0)
	t.exactComps.Store(0)
	t.pageReads.Store(0)
	t.coldScanned.Store(0)
	t.coldPruned.Store(0)
	t.coldFaults.Store(0)
	t.coldHits.Store(0)
	t.shards = t.shards[:0]
	return t
}

// Retain takes one additional reference on t. Every layer that may
// still write to the trace after its caller stopped waiting must hold
// its own reference and pair it with Release.
func (t *Trace) Retain() {
	if t == nil {
		return
	}
	t.refs.Add(1)
}

// Release drops one reference; the final Release returns t to the pool.
// The caller must not use t after releasing its reference.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	if t.refs.Add(-1) == 0 {
		tracePool.Put(t)
	}
}

// ID returns the trace id (nonzero for live traces), 0 on nil.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SetQuery records the request shape: k and the batch query count.
func (t *Trace) SetQuery(k, nq int) {
	if t == nil {
		return
	}
	atomic.StoreInt64(&t.k, int64(k))
	atomic.StoreInt64(&t.nq, int64(nq))
}

// K returns the recorded k.
func (t *Trace) K() int {
	if t == nil {
		return 0
	}
	return int(atomic.LoadInt64(&t.k))
}

// NQ returns the recorded batch query count.
func (t *Trace) NQ() int {
	if t == nil {
		return 0
	}
	return int(atomic.LoadInt64(&t.nq))
}

// MarkCached flags that the engine served this request from its result
// cache (scan counters will be zero).
func (t *Trace) MarkCached() {
	if t == nil {
		return
	}
	t.cached.Store(true)
}

// Cached reports whether any part of the request hit the result cache.
func (t *Trace) Cached() bool {
	if t == nil {
		return false
	}
	return t.cached.Load()
}

// AddSpan adds d to the given stage's span. Batch requests and
// multi-shard fan-outs add multiple contributions; the span is the
// sum.
func (t *Trace) AddSpan(s Stage, d time.Duration) {
	if t == nil || s >= NumStages || d <= 0 {
		return
	}
	t.spans[s].Add(int64(d))
}

// Span returns the accumulated span for a stage.
func (t *Trace) Span(s Stage) time.Duration {
	if t == nil || s >= NumStages {
		return 0
	}
	return time.Duration(t.spans[s].Load())
}

// Add folds a batch of counters into the trace.
func (t *Trace) Add(c Counters) {
	if t == nil {
		return
	}
	if c.Nodes != 0 {
		t.nodes.Add(c.Nodes)
	}
	if c.Leaves != 0 {
		t.leaves.Add(c.Leaves)
	}
	if c.BisectSteps != 0 {
		t.bisectSteps.Add(c.BisectSteps)
	}
	if c.Candidates != 0 {
		t.candidates.Add(c.Candidates)
	}
	if c.DistanceComps != 0 {
		t.distComps.Add(c.DistanceComps)
	}
	if c.ExactComps != 0 {
		t.exactComps.Add(c.ExactComps)
	}
	if c.PageReads != 0 {
		t.pageReads.Add(c.PageReads)
	}
	if c.ColdScanned != 0 {
		t.coldScanned.Add(c.ColdScanned)
	}
	if c.ColdPruned != 0 {
		t.coldPruned.Add(c.ColdPruned)
	}
	if c.ColdFaults != 0 {
		t.coldFaults.Add(c.ColdFaults)
	}
	if c.ColdHits != 0 {
		t.coldHits.Add(c.ColdHits)
	}
}

// Counters returns a snapshot of the accumulated counters.
func (t *Trace) Counters() Counters {
	if t == nil {
		return Counters{}
	}
	return Counters{
		Nodes:         t.nodes.Load(),
		Leaves:        t.leaves.Load(),
		BisectSteps:   t.bisectSteps.Load(),
		Candidates:    t.candidates.Load(),
		DistanceComps: t.distComps.Load(),
		ExactComps:    t.exactComps.Load(),
		PageReads:     t.pageReads.Load(),
		ColdScanned:   t.coldScanned.Load(),
		ColdPruned:    t.coldPruned.Load(),
		ColdFaults:    t.coldFaults.Load(),
		ColdHits:      t.coldHits.Load(),
	}
}

// AddShard appends one shard's child span. Beyond maxShardSpans the
// span is dropped (the aggregate stage spans still include it).
func (t *Trace) AddShard(s ShardSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.shards) < maxShardSpans {
		t.shards = append(t.shards, s)
	}
	t.mu.Unlock()
}

// Shards returns a copy of the per-shard child spans.
func (t *Trace) Shards() []ShardSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]ShardSpan, len(t.shards))
	copy(out, t.shards)
	t.mu.Unlock()
	return out
}

// ctxKey is the context key for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying tr. A nil trace returns ctx
// unchanged so untraced requests pay no context allocation.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// From extracts the trace from ctx, or nil.
func From(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// idCounter seeds NextID. Starting at 1 keeps id 0 meaning "no trace"
// on the wire.
var idCounter atomic.Uint64

// NextID returns a process-unique nonzero trace id. The sequential
// counter is mixed through a splitmix64 finalizer so ids look random
// in logs without needing a time or entropy source.
func NextID() uint64 {
	for {
		x := idCounter.Add(1)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// Sampler decides which requests get a trace. It is deterministic
// (counter-based, not random): rate r samples every round(1/r)-th
// request, so r=1 samples everything, r=0.01 every 100th, r<=0 none.
// Deterministic sampling keeps tests reproducible and spreads sampled
// requests evenly in time instead of clustering.
type Sampler struct {
	every uint64 // 0 = never
	n     atomic.Uint64
}

// NewSampler builds a sampler for the given rate in [0,1].
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	switch {
	case rate <= 0:
		s.every = 0
	case rate >= 1:
		s.every = 1
	default:
		s.every = uint64(1/rate + 0.5)
		if s.every == 0 {
			s.every = 1
		}
	}
	return s
}

// Sample reports whether the next request should be traced.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	return s.n.Add(1)%s.every == 0
}

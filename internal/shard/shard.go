// Package shard multiplies the BrePartition core index horizontally: a
// sharded index hash-partitions points across N independent core indexes
// and answers queries scatter-gather — every query fans out to all shards
// through per-shard engine worker pools, per-shard top-k answers are merged
// into the global top-k, and mutations route to the single shard that owns
// the point's id, so an Insert or Delete never locks more than one shard.
//
// This mirrors the paper's partitioned upper-bound pruning one level up:
// the paper partitions *dimensions* and merges per-subspace bounds; this
// layer partitions *points* and merges per-shard candidate heaps. Because
// every shard answers its exact local top-k with the same (distance, id)
// tie-break that the global brute-force oracle uses, the merged answer is
// bit-for-bit the single-index answer (the property test pins this).
//
// Locking model: a mutation takes the global id-map lock (which serializes
// mutations with each other and with snapshots) plus the owning shard's
// lock — never another shard's, so a mutation does not contend with the
// search work running inside other shards. Searches run lock-free against
// the id map except for a brief shared read when merging (translating
// local ids to global ids), which means queries overlap mutations except
// during that final merge step. This favors the read-dominated workloads
// the paper targets; sharding the id map itself is the upgrade path if
// mutation rates ever approach query rates.
//
// Consistency model: each mutation is atomic (it is confined to one shard
// plus the id map, both updated under locks), and a query observes every
// shard either entirely before or entirely after any given mutation. A
// query fanned across shards is NOT a global snapshot: two mutations to
// two different shards may straddle it. Snapshots (WriteDir) quiesce
// mutations via the id-map lock and are therefore globally consistent.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"brepartition/internal/approx"
	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/partition"
	"brepartition/internal/topk"
)

// Options configures a sharded index.
type Options struct {
	// Shards is the number of hash partitions (0 = 4).
	Shards int
	// Workers bounds each shard's engine worker pool (0 = GOMAXPROCS
	// divided by the shard count, at least 1, so a saturated batch uses
	// about GOMAXPROCS goroutines across all shards).
	Workers int
	// Dim fixes the dimensionality of an index built over zero points (a
	// freshly created collection that will be populated through Insert).
	// With one or more build points it is ignored — the points decide.
	// Build over zero points without Dim fails with core.ErrEmpty.
	Dim int
	// Core configures every per-shard core index. When Core.M is 0 the
	// Theorem-4 cost model is fitted once on the full dataset and the
	// resulting M pinned into every shard, so tiny shards do not derive
	// degenerate partitionings from their own small samples.
	Core core.Options
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / o.Shards
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	return o
}

// loc is the owning shard and the point's id inside it. A compacted-away
// tombstone — an id whose point no longer resides in any shard — is marked
// gone (shard = -1); it stays in the global id space (N() counts it, its
// tombstone survives snapshots) but owns no storage.
type loc struct {
	shard int32
	local int32
}

// goneLoc marks a global id whose tombstoned point compaction reclaimed.
var goneLoc = loc{shard: -1, local: -1}

// slot is one shard generation: a core index, its query engine, and the
// local→global id map for exactly that index. Compaction replaces a
// shard's slot wholesale (under the id-map write lock); a query that
// captured the old slot keeps searching and translating against it, so
// swaps never block or misdirect in-flight queries. l2g is append-only
// within a generation and strictly increasing, so local id order is
// global id order — the invariant the exact tie-break merge relies on.
type slot struct {
	sub *core.Index
	eng *engine.Engine
	l2g []int
}

// Index is a sharded BrePartition index. All exported methods are safe for
// concurrent use; see the package comment for the consistency model.
type Index struct {
	div bregman.Divergence
	d   int
	// Model is the globally fitted cost model when Core.M was derived
	// (zero value otherwise).
	Model partition.CostModel

	opts Options

	// mu guards the id maps, the tombstone set, the version counter, and
	// the lazily created shard slots; it also serializes mutations against
	// snapshots (WriteDir holds the read side for its whole duration,
	// mutations the write side).
	mu sync.RWMutex
	// snapMu serializes WriteDir calls with each other: concurrent
	// snapshots to the same destination would race on the shared
	// .staging/.old commit paths. Always acquired before mu.
	snapMu sync.Mutex
	// compactMu serializes CompactShard calls: one off-path rebuild at a
	// time, so a slot is only ever replaced by the compaction that
	// snapshotted it. Always acquired before mu.
	compactMu sync.Mutex
	// slots[s] is the current generation of shard s, nil until the first
	// point routes to s. The slice itself is fixed-size; entries are
	// replaced only by CompactShard (and materialized by Insert).
	slots []*slot
	// globalLoc[g] is the owner of global id g (every id ever assigned,
	// tombstoned or not); goneLoc once compaction reclaims a tombstone.
	globalLoc []loc
	deleted   []bool
	nDeleted  int
	version   uint64

	// coldFallbacks counts cold searches a shard served hot because its
	// sub-index carried no tier (freshly compacted or never ensured); the
	// per-sub stale-version fallbacks live in each core.Index. See cold.go.
	coldFallbacks atomic.Int64
}

// splitmix64 is the id-to-shard hash: cheap, stateless, and well mixed
// even on the sequential ids Insert assigns.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardFor returns the owning shard of a global id. Pure function of the
// id, so routing never needs the map.
func (ix *Index) shardFor(global int) int {
	return int(splitmix64(uint64(global)) % uint64(len(ix.slots)))
}

// Build hash-partitions points across opts.Shards core indexes. Global ids
// are the dataset row numbers, exactly as in core.Build.
func Build(div bregman.Divergence, points [][]float64, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if len(points) == 0 {
		if opts.Dim <= 0 {
			return nil, core.ErrEmpty
		}
		// Empty index with a declared dimensionality: every shard slot is
		// materialized lazily by the first Insert it receives. The cost
		// model cannot be fitted on nothing, so M stays whatever Core.M
		// says (materialize falls back to 1 when unset).
		return &Index{
			div:   div,
			d:     opts.Dim,
			opts:  opts,
			slots: make([]*slot, opts.Shards),
		}, nil
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("shard: point %d has dimension %d, want %d", i, len(p), d)
		}
	}

	ix := &Index{
		div:       div,
		d:         d,
		opts:      opts,
		slots:     make([]*slot, opts.Shards),
		globalLoc: make([]loc, len(points)),
		deleted:   make([]bool, len(points)),
	}

	// Pin M globally before splitting, so every shard searches the same
	// partition count the full dataset's cost model asks for.
	if ix.opts.Core.M == 0 {
		samples := ix.opts.Core.CostSamples
		if samples <= 0 {
			samples = 50
		}
		optK := ix.opts.Core.OptimizerK
		if optK <= 0 {
			optK = 1
		}
		model, err := partition.FitCostModel(div, points, samples, ix.opts.Core.Seed)
		if err != nil {
			return nil, fmt.Errorf("shard: deriving M: %w", err)
		}
		ix.Model = model
		m := model.OptimalM(optK)
		if m < 1 {
			m = 1
		}
		if m > d {
			m = d
		}
		ix.opts.Core.M = m
	}

	// Scatter points to their owners, preserving global order per shard.
	shardPoints := make([][][]float64, opts.Shards)
	l2gs := make([][]int, opts.Shards)
	for g, p := range points {
		s := ix.shardFor(g)
		ix.globalLoc[g] = loc{shard: int32(s), local: int32(len(shardPoints[s]))}
		l2gs[s] = append(l2gs[s], g)
		shardPoints[s] = append(shardPoints[s], p)
	}
	for s, pts := range shardPoints {
		if len(pts) == 0 {
			continue
		}
		sub, err := core.Build(div, pts, ix.opts.Core)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		ix.slots[s] = &slot{sub: sub, eng: ix.newEngine(sub), l2g: l2gs[s]}
	}
	return ix, nil
}

// newEngine wraps one shard in its query worker pool. Per-shard caches are
// disabled: the public Engine layer caches merged results once, which is
// strictly more useful than N partial caches.
func (ix *Index) newEngine(sub *core.Index) *engine.Engine {
	return engine.New(sub, engine.Config{Workers: ix.opts.Workers, CacheSize: -1})
}

// Shards returns the shard count.
func (ix *Index) Shards() int { return len(ix.slots) }

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.d }

// Divergence returns the divergence the index was built with.
func (ix *Index) Divergence() bregman.Divergence { return ix.div }

// N returns the number of ids ever assigned (including tombstoned ones).
func (ix *Index) N() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.globalLoc)
}

// Live returns the number of non-deleted points.
func (ix *Index) Live() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.globalLoc) - ix.nDeleted
}

// Deleted reports whether global id g has been removed.
func (ix *Index) Deleted(g int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return g >= 0 && g < len(ix.deleted) && ix.deleted[g]
}

// Version counts mutations applied through this index; the engine result
// cache keys on it exactly as with the core index.
func (ix *Index) Version() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.version
}

// ShardSizes returns the number of ids resident in each shard (including
// shard-local tombstones; compacted-away ids count nowhere). Use
// ShardLiveSizes for balance diagnostics — under deletes, resident counts
// overstate the shards that happened to absorb the tombstones.
func (ix *Index) ShardSizes() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sizes := make([]int, len(ix.slots))
	for s, sl := range ix.slots {
		if sl != nil {
			sizes[s] = len(sl.l2g)
		}
	}
	return sizes
}

// ShardLiveSizes returns the number of live (non-tombstoned) points each
// shard holds — the balance diagnostic that stays meaningful under heavy
// deletes, where ShardSizes counts dead weight.
func (ix *Index) ShardLiveSizes() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sizes := make([]int, len(ix.slots))
	for s, sl := range ix.slots {
		if sl != nil {
			sizes[s] = sl.sub.Live()
		}
	}
	return sizes
}

// M returns the per-shard partition count (every shard uses the same
// pinned M; see Options.Core).
func (ix *Index) M() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, sl := range ix.slots {
		if sl != nil {
			return sl.sub.M()
		}
	}
	return 0
}

// snapshotSlots copies the current shard generations so the scatter loop
// runs without holding the map lock, and so gather/merge answer and
// translate against exactly the generations the query was submitted to —
// a compaction swap between submit and merge cannot misdirect the
// local→global translation.
func (ix *Index) snapshotSlots() []*slot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]*slot, len(ix.slots))
	copy(out, ix.slots)
	return out
}

// Search returns the exact k nearest neighbours of q across all shards:
// ids and distances are identical to a single core index built over the
// same points. Items carry global ids.
func (ix *Index) Search(q []float64, k int) (core.Result, error) {
	if k <= 0 {
		return core.Result{}, core.ErrK
	}
	if len(q) != ix.d {
		return core.Result{}, fmt.Errorf("%w: got %d, want %d", core.ErrDim, len(q), ix.d)
	}
	slots := ix.snapshotSlots()
	futs := make([]*engine.Future, len(slots))
	for s, sl := range slots {
		if sl != nil {
			futs[s] = sl.eng.Submit(q, k)
		}
	}
	return ix.gather(slots, futs, k)
}

// SearchParallel is Search: the scatter across shards is already the
// parallel axis, so the per-query worker hint is ignored. It exists so the
// engine can drive a sharded backend through the same interface.
func (ix *Index) SearchParallel(q []float64, k, workers int) (core.Result, error) {
	return ix.Search(q, k)
}

// SearchApprox answers k neighbours that are the exact kNN with
// probability at least p ∈ (0,1]. Each shard runs its §8 approximate
// search with the per-shard guarantee p^(1/S): the global answer is exact
// whenever every shard's local answer is, and shard failures are
// independent, so the per-shard guarantees multiply back to ≥ p. p = 1
// degenerates to exact search, bit-identical to Search.
func (ix *Index) SearchApprox(q []float64, k int, p float64) (core.Result, error) {
	if !(p > 0 && p <= 1) {
		return core.Result{}, approx.ErrGuarantee
	}
	if k <= 0 {
		return core.Result{}, core.ErrK
	}
	if len(q) != ix.d {
		return core.Result{}, fmt.Errorf("%w: got %d, want %d", core.ErrDim, len(q), ix.d)
	}
	slots := ix.snapshotSlots()
	live := 0
	for _, sl := range slots {
		if sl != nil {
			live++
		}
	}
	ps := p
	if live > 1 {
		ps = math.Pow(p, 1/float64(live))
	}
	futs := make([]*engine.Future, len(slots))
	for s, sl := range slots {
		if sl != nil {
			futs[s] = sl.eng.SubmitApprox(q, k, ps)
		}
	}
	return ix.gather(slots, futs, k)
}

// gather awaits the per-shard futures and merges their top-k heaps.
func (ix *Index) gather(slots []*slot, futs []*engine.Future, k int) (core.Result, error) {
	perShard := make([]core.Result, len(futs))
	var firstErr error
	for s, f := range futs {
		if f == nil {
			continue
		}
		res, err := f.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		perShard[s] = res
	}
	if firstErr != nil {
		return core.Result{}, firstErr
	}
	return ix.merge(slots, perShard, k), nil
}

// merge combines per-shard results into the global top-k. Every shard
// contributed its exact local top-k with ties broken by local id — and
// local id order is global id order within a shard — so sorting the union
// by (distance, global id) and truncating reproduces exactly the answer a
// single index over all points would give. Translation goes through the
// slots the query was scattered to, under the id-map read lock: a slot's
// l2g only ever grows within its generation (a compaction installs a new
// slot object rather than touching the old one), so the captured map is
// valid for every local id the old generation could have answered with.
func (ix *Index) merge(slots []*slot, perShard []core.Result, k int) core.Result {
	var out core.Result
	total := 0
	for _, r := range perShard {
		total += len(r.Items)
	}
	all := make([]topk.Item, 0, total)

	fl := firstLive(perShard)
	ix.mu.RLock()
	for s, r := range perShard {
		for _, it := range r.Items {
			all = append(all, topk.Item{ID: slots[s].l2g[it.ID], Score: it.Score})
		}
		out.Stats = addStats(out.Stats, r.Stats, s == fl)
	}
	ix.mu.RUnlock()

	// topk.Compare is the same (distance, global id) order every shard's
	// local answer used, so the merged truncation is exact; SortFunc keeps
	// the per-query merge allocation-free.
	slices.SortFunc(all, topk.Compare)
	if len(all) > k {
		all = all[:k]
	}
	out.Items = all
	return out
}

// firstLive returns the index of the first shard that answered (its stats
// seed the BoundTotal min).
func firstLive(perShard []core.Result) int {
	for s, r := range perShard {
		if len(r.Items) > 0 || r.Stats.Candidates > 0 {
			return s
		}
	}
	return 0
}

// addStats folds one shard's work into the aggregate: work counters and
// the CPU phase times sum (total cost across the fleet), the wall phase
// times are the critical shard's, BoundTotal keeps the tightest
// per-shard bound, ApproxC stays 1 (sharded search is exact).
//
// Shards run in parallel, so summing their wall phase times would report
// more scan time than the request took. The critical shard is the one
// with the most filter, refine and cold time; its split is what the
// request waited for.
func addStats(agg, s core.SearchStats, first bool) core.SearchStats {
	agg.PageReads += s.PageReads
	agg.Candidates += s.Candidates
	agg.NodesVisited += s.NodesVisited
	agg.LeavesVisited += s.LeavesVisited
	agg.DistanceComps += s.DistanceComps
	agg.ExactComps += s.ExactComps
	agg.BisectSteps += s.BisectSteps
	agg.FilterCPU += s.FilterCPU
	agg.RefineCPU += s.RefineCPU
	if phaseTime(s) > phaseTime(agg) {
		agg.FilterTime, agg.RefineTime, agg.ColdTime = s.FilterTime, s.RefineTime, s.ColdTime
	}
	agg.ColdScanned += s.ColdScanned
	agg.ColdPruned += s.ColdPruned
	agg.ColdPageFaults += s.ColdPageFaults
	agg.ColdCacheHits += s.ColdCacheHits
	agg.ApproxC = 1
	if first || (s.BoundTotal > 0 && s.BoundTotal < agg.BoundTotal) {
		agg.BoundTotal = s.BoundTotal
	}
	return agg
}

// phaseTime is one search's wall time in the filter, refine and cold
// phases.
func phaseTime(s core.SearchStats) time.Duration {
	return s.FilterTime + s.RefineTime + s.ColdTime
}

// BatchSearch answers all queries, scatter-gathering each across every
// shard with up to Workers concurrent queries per shard. Results arrive in
// query order and match a sequential Search loop exactly.
func (ix *Index) BatchSearch(queries [][]float64, k int) ([]core.Result, error) {
	if k <= 0 {
		return nil, core.ErrK
	}
	slots := ix.snapshotSlots()
	futs := make([][]*engine.Future, len(queries))
	for qi, q := range queries {
		futs[qi] = make([]*engine.Future, len(slots))
		for s, sl := range slots {
			if sl != nil {
				futs[qi][s] = sl.eng.Submit(q, k)
			}
		}
	}
	out := make([]core.Result, len(queries))
	var firstErr error
	for qi := range futs {
		res, err := ix.gather(slots, futs[qi], k)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[qi] = res
	}
	return out, firstErr
}

// RangeSearch returns every point with D_f(x, q) ≤ r across all shards,
// ascending by (distance, global id), with the summed work statistics.
func (ix *Index) RangeSearch(q []float64, r float64) ([]topk.Item, core.SearchStats, error) {
	var stats core.SearchStats
	if len(q) != ix.d {
		return nil, stats, fmt.Errorf("%w: got %d, want %d", core.ErrDim, len(q), ix.d)
	}
	slots := ix.snapshotSlots()
	futs := make([]*engine.Future, len(slots))
	for s, sl := range slots {
		if sl != nil {
			futs[s] = sl.eng.SubmitRange(q, r)
		}
	}
	res, err := ix.gather(slots, futs, int(^uint(0)>>1)) // no truncation
	return res.Items, res.Stats, err
}

// Insert adds a point, assigns it the next global id, and routes it to
// the owning shard; no other shard's lock is taken (the global id-map
// lock serializes mutations with each other, not with in-shard search
// work). An empty shard slot is materialized as a fresh single-point core
// index on first use.
func (ix *Index) Insert(p []float64) (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(p) != ix.d {
		return 0, fmt.Errorf("%w: got %d, want %d", core.ErrDim, len(p), ix.d)
	}
	g := len(ix.globalLoc)
	s := ix.shardFor(g)
	var local int
	if ix.slots[s] == nil {
		sub, err := ix.materialize(p)
		if err != nil {
			return 0, err
		}
		ix.slots[s] = &slot{sub: sub, eng: ix.newEngine(sub)}
		local = 0
	} else {
		var err error
		local, err = ix.slots[s].sub.Insert(p)
		if err != nil {
			return 0, err
		}
	}
	ix.globalLoc = append(ix.globalLoc, loc{shard: int32(s), local: int32(local)})
	ix.slots[s].l2g = append(ix.slots[s].l2g, g)
	ix.deleted = append(ix.deleted, false)
	ix.version++
	return g, nil
}

// materialize builds a fresh single-point core index for an empty shard
// slot (first routed point, or a compaction that emptied the shard).
func (ix *Index) materialize(p []float64) (*core.Index, error) {
	copts := ix.opts.Core
	if copts.M <= 0 {
		// Build pins M > 0 and snapshots carry it, so this is only
		// reachable through a legacy or hand-built Options value; the
		// cost model cannot fit a single point, so fall back to M=1.
		copts.M = 1
	}
	return core.Build(ix.div, [][]float64{append([]float64(nil), p...)}, copts)
}

// Delete tombstones global id g, reporting whether it was live. Like
// Insert it takes the id-map lock plus the owning shard's lock only.
func (ix *Index) Delete(g int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if g < 0 || g >= len(ix.globalLoc) || ix.deleted[g] {
		return false
	}
	l := ix.globalLoc[g]
	ix.slots[l.shard].sub.Delete(int(l.local))
	ix.deleted[g] = true
	ix.nDeleted++
	ix.version++
	return true
}

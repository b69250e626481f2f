package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"brepartition/internal/client"
	"brepartition/internal/coldtier"
	"brepartition/internal/server"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale multiplies every dataset size and operation count; real runs
	// use 1, the smoke test a small fraction.
	scale    float64
	workDir  string    // scratch root for durable state, removed by the caller
	spanFile string    // where the traced run writes its spans ("" = keep none)
	out      io.Writer // human-readable report (fingerprint, tables)
	// inject corrupts this many served answers before they are checked,
	// to prove a wrong answer is counted (smoke test only).
	inject int
	// breakCold makes the served cold tier unbuildable, to prove knn-cold
	// refuses to report hot-path figures (smoke test only).
	breakCold bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Per-run search budgets, per second of --seconds: the kept segments of
// a run hold this many searches times --seconds (1000 on knn-hot and
// 1200 on knn-cold at --seconds 20, about 25 s and 7 s of searching on
// the reference 2-CPU box; the oracle for all the queries sent takes
// about as long again). A fixed count, not a fixed duration, lets
// the oracle answer every query before timing starts; a faster program
// finishes the same work sooner.
const (
	hotSearchesPerSec  = 50
	coldSearchesPerSec = 60

	// The timed phase runs in segments; the timings come from the
	// keptSegments quietest, which hold the rate's worth of searches.
	segments     = 30
	keptSegments = 20

	// setup_s is the median of this many full builds of the audio index
	// (about 2.5 s each).
	buildSetups = 5

	ladderWrites   = 40 // inserts per rung of the write ladder
	hotLadderQ     = 24
	coldCacheShare = 0.10 // knn-cold block-cache budget ÷ point bytes
)

func workloadNames() []string { return []string{"knn-hot", "knn-cold"} }

// tally counts operations and failures. A failed, shed, timed-out or
// wrong answer, and a cold-tier fallback on knn-cold, is a failure.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

func (t *tally) fail(err error) { t.failN(1, err) }

func (t *tally) failN(n int64, err error) {
	t.failed.Add(n)
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// env is one run's shared state: inputs, the served stack, and what the
// workload phase measured.
type env struct {
	o    options
	w    string
	col  *colData
	k    int
	cold bool

	st      *stack
	setups  []time.Duration
	t       tally
	search  []time.Duration // latencies of the successful timed searches
	opsRate float64

	cacheHits, cacheQueries int64
	sheds                   int64
}

func (e *env) scaled(perSec int) int {
	return scaled(perSec*e.o.seconds, e.o.scale)
}

func run(o options) (*result, error) {
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{o: o, w: o.workload}
	fmt.Fprintf(o.out, "perfbench: workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(o.out, "fingerprint: %s\n", fingerprint())
	if !slices.Contains(workloadNames(), o.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	t0 := time.Now()
	if err := e.prepareAudio(o.workload == "knn-cold"); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "inputs: %d points, %d queries in %.1fs\n", len(e.col.points), len(e.col.queries), time.Since(t0).Seconds())
	t0 = time.Now()
	if err := e.doSetup(); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "setup: %d setups in %.1fs\n", len(e.setups), time.Since(t0).Seconds())
	defer func() {
		if e.st != nil {
			e.st.close()
		}
	}()
	if err := e.runReads(); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		lm, err := e.ladder()
		if err != nil {
			return nil, err
		}
		res.Metrics = lm
	} else {
		if err := e.endToEnd(res.Metrics); err != nil {
			return nil, err
		}
	}
	if err := e.st.close(); err != nil {
		return nil, fmt.Errorf("closing the stack: %w", err)
	}
	e.st = nil
	res.Attempted = e.t.attempted.Load()
	res.Failed = min(e.t.failed.Load(), res.Attempted)
	res.Correct = res.Failed == 0
	if e.t.firstErr != nil {
		fmt.Fprintf(o.out, "first failure: %v\n", e.t.firstErr)
	}
	fmt.Fprintf(o.out, "error_rate: %d failed / %d attempted\n", res.Failed, res.Attempted)
	return res, nil
}

// doSetup builds the served state buildSetups times (once in a traced
// run) and keeps the last; setup_s is the median.
func (e *env) doSetup() error {
	reps := buildSetups
	if e.o.trace {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		root := fmt.Sprintf("%s/root-%d", e.o.workDir, r)
		start := time.Now()
		st, err := e.setupBootstrap(root)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		e.setups = append(e.setups, time.Since(start))
		if r < reps-1 {
			if err := st.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(root); err != nil {
				return err
			}
			// A discarded setup's garbage is the harness's, not the
			// server's: collect it so it does not raise peak_rss_mb.
			runtime.GC()
			continue
		}
		e.st = st
	}
	return nil
}

// serverConfig is breserved's default configuration, plus the cold tier
// on knn-cold (as `breserved -coldtier` with a cache budget).
func (e *env) serverConfig() server.Config {
	var cfg server.Config
	if e.cold {
		cfg.ColdTierEnabled = true
		cfg.ColdTier = coldConfigFor(e.col)
		if e.o.breakCold {
			cfg.ColdTier.PageSize = -1 // an impossible page geometry: every tier build fails
		}
	}
	return cfg
}

// coldConfigFor gives each of a collection's 4 shard tiers its share of
// a block cache sized at coldCacheShare of the point bytes.
func coldConfigFor(c *colData) coldtier.Config {
	budget := coldCacheShare * float64(len(c.points)*c.dim*8) / 4
	return coldtier.Config{CacheBytes: max(1, int64(budget))}
}

// setupBootstrap is `breserved -bootstrap`: BuildDurable into 4 shards
// with the cost model deriving M, close, then open and serve. On
// knn-cold the server builds each collection's cold tier as it opens; a
// failed build leaves the collection serving hot, so setup fails unless
// every collection's tier is serving.
func (e *env) setupBootstrap(root string) (*stack, error) {
	c := e.col
	d, err := shard.BuildDurable(c.div, c.points, root, shard.DurableOptions{Shards: 4})
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	st, err := openStack(root, e.serverConfig())
	if err != nil {
		return nil, err
	}
	if e.cold {
		for _, col := range st.reg.List() {
			if !col.Handle.ColdTierEnabled() {
				st.close()
				return nil, fmt.Errorf("the cold tier of collection %q is not serving (its build failed)", col.Name)
			}
		}
	}
	return st, nil
}

// clients is nproc: each a closed-loop caller with one connection.
func clients() int { return runtime.NumCPU() }

// segment is one slice of the timed phase.
type segment struct {
	lo, hi int           // its queries: c.queries[lo:hi]
	wall   time.Duration // from its first request to its last reply
	steal  float64       // share of CPU time the hypervisor stole meanwhile
}

// runReads is the timed phase. The queries are sent in `segments` equal
// segments, each query once: in a segment the clients take the next
// query until the segment's are sent, and the segment ends when every
// reply is in. The timings come from the keptSegments segments during
// which the hypervisor stole the least CPU time, so that a burst of load
// from other machines on the host does not set the figures. Every answer,
// timed or not, is checked against the oracle after timing; on knn-cold
// every search must also have gone through the tier.
func (e *env) runReads() error {
	c := e.col
	// Oracle, before timing starts.
	t0 := time.Now()
	want := oracleAll(c.div, c.points, c.queries, e.k)
	fmt.Fprintf(e.o.out, "oracle: %d queries in %.1fs\n", len(c.queries), time.Since(t0).Seconds())
	live := int64(len(c.points))
	if !e.o.trace {
		// The served index has its own copy; only the ladder needs this
		// one, and peak_rss_mb should not.
		c.points = nil
	}
	runtime.GC() // leave the oracle's garbage out of the timed phase
	n := len(c.queries)
	got := make([][]wire.Item, n)
	errs := make([]error, n)
	lats := make([]time.Duration, n)
	fallbacks0 := e.coldFallbacks()
	cold0 := e.coldScanned()
	hits0, queries0 := e.engineCache()

	cols := make([]*client.Collection, clients())
	for w := range cols {
		cl := e.st.newClient(true)
		defer cl.Close()
		cols[w] = cl.Collection(c.name)
	}
	ctx := context.Background()
	segs := make([]segment, segments)
	per := n / segments // prepareAudio makes n a multiple of segments
	ticks, ticksOK := readTicks()
	for s := range segs {
		lo, hi := s*per, (s+1)*per
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		t0, ok := readTicks()
		start := time.Now()
		for _, col := range cols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					ts := time.Now()
					got[i], errs[i] = col.Search(ctx, c.queries[i], e.k)
					lats[i] = time.Since(ts)
				}
			}()
		}
		wg.Wait()
		segs[s] = segment{lo: lo, hi: hi, wall: time.Since(start), steal: stealShare(t0, ok)}
	}
	steal := stealSince(ticks, ticksOK)

	// Keep the quietest segments; ties keep the earlier.
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return segs[order[a]].steal < segs[order[b]].steal })
	timed := make([]bool, n)
	var keptWall time.Duration
	var keptSteal, droppedSteal []float64
	for r, s := range order {
		if r >= keptSegments {
			droppedSteal = append(droppedSteal, segs[s].steal)
			continue
		}
		keptSteal = append(keptSteal, segs[s].steal)
		keptWall += segs[s].wall
		for i := segs[s].lo; i < segs[s].hi; i++ {
			timed[i] = true
		}
	}

	for i := 0; i < e.o.inject && i < len(got); i++ {
		got[i] = corrupt(got[i])
	}
	for i := range got {
		e.t.attempted.Add(1)
		switch {
		case errs[i] != nil:
			if errors.Is(errs[i], client.ErrOverloaded) || errors.Is(errs[i], wire.ErrQuota) {
				e.sheds++
			}
			e.t.fail(fmt.Errorf("search %d: %w", i, errs[i]))
		case !sameItems(got[i], want[i]):
			e.t.fail(fmt.Errorf("search %d: answer differs from the brute-force oracle", i))
		case timed[i]:
			e.search = append(e.search, lats[i])
		}
	}
	if fb := e.coldFallbacks() - fallbacks0; fb > 0 {
		e.t.failN(fb, fmt.Errorf("%d cold-tier searches fell back to the hot path", fb))
	}
	if e.cold {
		// Each cold search bound-checks every live point once, summed
		// over the shards' tiers; a search the tier did not see is a
		// failure even if its answer was right.
		if miss := int64(n) - (e.coldScanned()-cold0)/live; miss > 0 {
			e.t.failN(miss, fmt.Errorf("%d of %d searches did not go through the cold tier", miss, n))
		}
	}
	hits1, queries1 := e.engineCache()
	e.cacheHits, e.cacheQueries = hits1-hits0, queries1-queries0
	e.opsRate = float64(len(e.search)) / keptWall.Seconds()
	fmt.Fprintf(e.o.out, "search phase: %d searches in %d segments over %d clients, %s; timed: the %d segments with the least steal (median steal %.1f%% kept, %.1f%% dropped)\n",
		n, len(segs), clients(), steal, keptSegments, 100*median(keptSteal), 100*median(droppedSteal))
	return nil
}

// corrupt returns a copy of an answer with its first item wrong.
func corrupt(items []wire.Item) []wire.Item {
	out := append([]wire.Item(nil), items...)
	if len(out) == 0 {
		return []wire.Item{{ID: -1}}
	}
	out[0].ID++
	return out
}

// coldFallbacks sums the served collections' cold-to-hot fallbacks.
func (e *env) coldFallbacks() int64 {
	var n int64
	for _, c := range e.st.reg.List() {
		n += c.Handle.ColdFallbacks()
	}
	return n
}

// coldScanned sums the points the served cold tiers have bound-checked.
func (e *env) coldScanned() int64 {
	var n int64
	for _, c := range e.st.reg.List() {
		if st, ok := c.Handle.ColdStats(); ok {
			n += st.Scanned
		}
	}
	return n
}

// engineCache reads the served collection's engine cache counters.
func (e *env) engineCache() (hits, queries int64) {
	if eng := e.st.srv.Engine(); eng != nil {
		s := eng.Stats()
		return s.CacheHits, s.Queries
	}
	return 0, 0
}

// endToEnd fills the end-to-end metrics.
func (e *env) endToEnd(m map[string]metric) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	disk, err := dirBytes(e.st.root, "")
	if err != nil {
		return err
	}
	var userBytes float64
	for _, c := range e.st.reg.List() {
		userBytes += float64(c.Handle.Live() * c.Handle.Dim() * 8)
	}
	if len(e.search) == 0 {
		return errors.New("no successful searches to report")
	}
	m["ops_per_s"] = metric{e.opsRate, "1/s"}
	m["search_p50_ms"] = metric{ms(quantile(e.search, 0.50)), "ms"}
	m["setup_s"] = metric{quantile(e.setups, 0.5).Seconds(), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["disk_bytes_per_user_byte"] = metric{float64(disk) / userBytes, "ratio"}
	// p99 is reported, not gated: one burst of hypervisor steal moves it
	// by a third between otherwise identical runs on a shared host.
	fmt.Fprintf(e.o.out, "samples: %d searches, %d setups; search p99 %.4f ms (not gated)\n",
		len(e.search), len(e.setups), ms(quantile(e.search, 0.99)))
	// Part of peak_rss_mb is the harness's own: the inputs it holds, and
	// the rest of the Go heap beside the served index.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := e.col
	held := len(c.points) + len(c.queries) + len(c.ladderQ) + len(c.spare)
	fmt.Fprintf(e.o.out, "memory: peak RSS %.1f MB; live Go heap now %.1f MB, of which harness inputs %.1f MB (%d points)\n",
		rss, float64(mem.HeapAlloc)/(1<<20), float64(held*c.dim*8)/(1<<20), held)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(e.o.out, "  %-26s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return nil
}

// quantile is the nearest-rank quantile of the durations.
func quantile(d []time.Duration, p float64) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

// The traced run. One caller sends each held-out ladder query down every
// rung — client over loopback, server handler in process, the wire codec,
// engine, shard, each shard's core index, and the core's own stages —
// and every call is recorded as a span (name, start, end, parent). A
// layer's self time is its rung minus the rungs it calls, taken per
// query; the metrics are medians over the ladder queries. Every rung's
// answer is checked against the brute-force oracle, like the workload's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"brepartition/internal/bbforest"
	"brepartition/internal/bbtree"
	"brepartition/internal/client"
	"brepartition/internal/coldtier"
	"brepartition/internal/collection"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
	"brepartition/internal/transform"
	"brepartition/internal/wire"
)

// span is one timed call of the traced run.
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

// time runs fn as one span and returns its duration.
func (r *recorder) time(name, parent string, q int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.spans = append(r.spans, span{name, q, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds(), parent})
	return end.Sub(start)
}

// replica mirrors the served collection shard by shard with standalone
// core indexes, so the core and its stages can be called directly. The
// shard routing (splitmix64 of the global id) and the per-shard build
// options are the ones the shard layer uses; the replicas' answers are
// checked against the oracle like every other rung.
type replica struct {
	col    *collection.Collection
	shards []*core.Index
	l2g    [][]int
	tiers  []*coldtier.Tier
	block  kernel.FlatBlock
}

// splitmix64 is the shard layer's id→shard hash (a persisted routing
// contract: snapshots depend on it).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildReplica builds the per-shard core indexes over the served points
// (point i has id i) with the M BuildDurable derived and pinned, plus
// standalone cold tiers over each shard with the knn-cold cache budget;
// on knn-cold the core replicas get the same tier attached so their cold
// search can be called too.
func (e *env) buildReplica(dir string) (*replica, error) {
	c := e.col
	col, err := e.st.reg.Get(c.name)
	if err != nil {
		return nil, err
	}
	nsh := col.Handle.Shards()
	r := &replica{col: col, shards: make([]*core.Index, nsh), l2g: make([][]int, nsh)}
	base := make([][][]float64, nsh)
	for id, p := range c.points {
		s := int(splitmix64(uint64(id)) % uint64(nsh))
		base[s] = append(base[s], p)
		r.l2g[s] = append(r.l2g[s], id)
	}
	cfg := coldConfigFor(c)
	for s := range base {
		if len(base[s]) == 0 {
			return nil, fmt.Errorf("replica %s: shard %d is empty", c.name, s)
		}
		sub, err := core.Build(c.div, base[s], core.Options{M: col.Handle.M()})
		if err != nil {
			return nil, fmt.Errorf("replica %s shard %d: %w", c.name, s, err)
		}
		r.shards[s] = sub
		ids, spts := sub.LiveSnapshot()
		tier, err := coldtier.Build(c.div, spts, ids, sub.Version(), filepath.Join(dir, fmt.Sprintf("%s-tier-%d", c.name, s)), cfg)
		if err != nil {
			return nil, err
		}
		r.tiers = append(r.tiers, tier)
		if e.cold {
			if err := sub.BuildColdTier(filepath.Join(dir, fmt.Sprintf("%s-core-%d", c.name, s)), cfg); err != nil {
				return nil, err
			}
		}
	}
	r.block = kernel.Flatten(c.points)
	return r, nil
}

func (r *replica) close() {
	for s, t := range r.tiers {
		t.Close()
		r.shards[s].CloseColdTier()
	}
}

// ladderQ is one ladder query with its oracle answers. The filtered
// core rung admits the points whose id mod numTags is the query's tag.
type ladderQ struct {
	q    []float64
	tag  int
	want []topk.Item // unfiltered
	wF   []topk.Item // filtered by tag (the core.filter_search rung)
}

// rungs is one ladder query's measurements (durations in ns).
type rungs struct {
	client, server, wireC, wireS, engine, queue, shard float64
	core, trans, bbf, scan, tier, filter               []float64 // per shard
	kernel                                             float64
	live, cands, nodes, leaves, pages                  int
	tScanned, tPruned, tFaults, tHits                  int
}

// ladder runs the traced run and returns the per-layer metrics.
func (e *env) ladder() (map[string]metric, error) {
	c := e.col
	// Tail points come from the served stack before the ladder touches it.
	tail := 0
	for _, col := range e.st.reg.List() {
		for _, h := range col.Handle.Health() {
			tail += h.Tail
		}
	}
	if err := e.st.stopServing(); err != nil {
		return nil, err
	}
	// The ladder's own server: breserved defaults with the result cache
	// off, so no rung can be answered from a cache.
	cfg := e.serverConfig()
	cfg.Engine.CacheSize = -1
	if err := e.st.serveAgain(cfg); err != nil {
		return nil, err
	}
	fallbacks0 := e.coldFallbacks()
	r, err := e.buildReplica(filepath.Join(e.o.workDir, "ladder"))
	if err != nil {
		return nil, err
	}
	defer r.close()
	eng := engine.New(r.col.Handle, engine.Config{CacheSize: -1})
	defer eng.Close()

	// The oracle answers every ladder query before any rung runs.
	kern := kernel.For(c.div)
	ids := make([]int, len(c.points))
	for i := range ids {
		ids[i] = i
	}
	qs := make([]ladderQ, len(c.ladderQ))
	for j, q := range c.ladderQ {
		t := j % numTags
		qs[j] = ladderQ{q: q, tag: t,
			want: bruteKNN(kern, ids, c.points, q, e.k, nil, nil),
			wF:   bruteKNN(kern, ids, c.points, q, e.k, func(id int) bool { return id%numTags == t }, nil),
		}
	}

	rec := &recorder{t0: time.Now()}
	cl := e.st.newClient(true)
	defer cl.Close()
	handler := e.st.srv.Handler()
	var all []rungs
	check := func(ok bool, what string, qi int) {
		e.t.attempted.Add(1)
		if !ok {
			e.t.fail(fmt.Errorf("ladder query %d: %s answer differs from the brute-force oracle", qi, what))
		}
	}
	for qi, x := range qs {
		runtime.GC() // keep collector pauses out of the timed rungs
		g, err := e.ladderQuery(qi, x, r, eng, cl, handler, rec, check)
		if err != nil {
			return nil, err
		}
		all = append(all, g)
	}

	if fb := e.coldFallbacks() - fallbacks0; e.cold && fb > 0 {
		e.t.failN(fb, fmt.Errorf("%d ladder cold-tier searches fell back to the hot path", fb))
	}
	m := e.layerMetrics(all, r, tail)
	wm, err := e.writeLadder(rec)
	if err != nil {
		return nil, err
	}
	for k, v := range wm {
		m[k] = v
	}
	e.writeSpans(rec)
	return m, nil
}

// ladderQuery sends one query down every rung.
func (e *env) ladderQuery(qi int, x ladderQ, r *replica, eng *engine.Engine, cl *client.Client, handler http.Handler, rec *recorder, check func(bool, string, int)) (rungs, error) {
	ctx := context.Background()
	c := e.col
	var g rungs

	// client → server over loopback.
	var items []wire.Item
	var err error
	g.client = ns(rec.time("client", "", qi, func() {
		items, err = cl.Collection(c.name).Search(ctx, x.q, e.k)
	}))
	if err != nil {
		return g, fmt.Errorf("ladder client rung: %w", err)
	}
	check(sameItems(items, x.want), "client", qi)

	// The server handler in process, and the wire codec both ways.
	reqBody, err := wire.AppendRequest(nil, e.searchRequest(x.q))
	if err != nil {
		return g, err
	}
	var resp *httptest.ResponseRecorder
	g.server = ns(rec.time("server", "client", qi, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/frame", bytes.NewReader(reqBody))
		req.Header.Set("Content-Type", "application/octet-stream")
		resp = httptest.NewRecorder()
		handler.ServeHTTP(resp, req)
	}))
	if resp.Code != http.StatusOK {
		return g, fmt.Errorf("ladder server rung: status %d: %s", resp.Code, strings.TrimSpace(resp.Body.String()))
	}
	var decoded []wire.Item
	wc, wsv, err := e.codec(reqBody, resp.Body.Bytes(), x.q, &decoded, rec, qi)
	if err != nil {
		return g, err
	}
	g.wireC, g.wireS = ns(wc), ns(wsv)
	check(sameItems(decoded, x.want), "server", qi)

	// engine → shard.
	var res core.Result
	var f *engine.Future
	g.engine = ns(rec.time("engine", "server", qi, func() {
		f = eng.Submit(x.q, e.k)
		res, err = f.Wait()
	}))
	if err != nil {
		return g, fmt.Errorf("ladder engine rung: %w", err)
	}
	g.queue = ns(f.QueueWait())
	check(sameTopk(res.Items, x.want), "engine", qi)
	g.shard = ns(rec.time("shard", "engine", qi, func() {
		res, err = r.col.Handle.Search(x.q, e.k)
	}))
	if err != nil {
		return g, fmt.Errorf("ladder shard rung: %w", err)
	}
	check(sameTopk(res.Items, x.want), "shard", qi)

	// Each shard's core index, then the core's stages on it.
	var merged, mergedF []topk.Item
	for s, sub := range r.shards {
		l2g := r.l2g[s]
		var cres core.Result
		d := rec.time(fmt.Sprintf("core.%d", s), "shard", qi, func() {
			if e.cold {
				cres, err = sub.SearchColdAppend(nil, x.q, e.k)
			} else {
				cres, err = sub.SearchAppend(nil, x.q, e.k)
			}
		})
		if err != nil {
			return g, fmt.Errorf("ladder core rung: %w", err)
		}
		g.core = append(g.core, ns(d))
		for _, it := range cres.Items {
			merged = append(merged, topk.Item{ID: l2g[it.ID], Score: it.Score})
		}
		var fres core.Result
		keep := func(l int) bool { return l2g[l]%numTags == x.tag }
		g.filter = append(g.filter, ns(rec.time(fmt.Sprintf("core.filter.%d", s), "", qi, func() {
			fres, err = sub.SearchFilter(x.q, e.k, keep)
		})))
		if err != nil {
			return g, err
		}
		for _, it := range fres.Items {
			mergedF = append(mergedF, topk.Item{ID: l2g[it.ID], Score: it.Score})
		}
		staged, tiered, err := e.stages(&g, r, s, x.q, qi, rec)
		if err != nil {
			return g, err
		}
		check(sameTopk(staged, cres.Items), "core stages", qi)
		check(sameTopk(tiered, cres.Items), "cold tier", qi)
	}
	check(sameTopk(topK(merged, e.k), x.want), "core", qi)
	check(sameTopk(topK(mergedF, e.k), x.wF), "filtered core", qi)

	// The kernel over the collection's full flat block.
	kern := kernel.For(c.div)
	dist := make([]float64, r.block.N)
	g.kernel = ns(rec.time("kernel", "", qi, func() { kern.DistancesTo(x.q, r.block, dist) }))
	g.live = r.block.N
	return g, nil
}

// stages times the core's stages on shard s as direct calls: the query
// transform and bound selection, the BB-forest candidate union, and the
// refinement; then the standalone cold tier's search. It returns both
// answers (local ids) so the caller can check them against the core's.
func (e *env) stages(g *rungs, r *replica, s int, q []float64, qi int, rec *recorder) (staged, tiered []topk.Item, err error) {
	sub := r.shards[s]
	parent := fmt.Sprintf("core.%d", s)
	kern := sub.Kernel()
	var triples []transform.QueryTriple
	sel := topk.New(1)
	radii := make([]float64, sub.M())
	var bounds transform.Bounds
	g.trans = append(g.trans, ns(rec.time("transform", parent, qi, func() {
		triples = transform.QTransformAppend(triples[:0], sub.Div, q, sub.Parts)
		sel.ResetK(min(e.k, len(sub.Tuples)))
		bounds = transform.QBDetermineInto(sub.Tuples, triples, sel, radii)
	})))
	sess := sub.Forest.Store.NewSession()
	var sc bbforest.SearchScratch
	var cands []int
	g.bbf = append(g.bbf, ns(rec.time("bbforest", parent, qi, func() {
		var ts bbtree.Stats
		cands, ts = sub.Forest.CandidateUnionCtx(q, bounds.Radii, sess, &sc)
		g.nodes += ts.NodesVisited
		g.leaves += ts.LeavesVisited
	})))
	dist := make([]float64, scan.RefineChunk)
	var prep []float64
	g.scan = append(g.scan, ns(rec.time("scan", parent, qi, func() {
		if kr := min(e.k, len(cands)); kr > 0 {
			sel.ResetK(kr)
			if n := kern.QueryScratchLen(len(q)); n > 0 {
				prep = make([]float64, n)
				kern.PrepQuery(prep, q)
			}
			scan.RefineCtx(kern, sess, cands, q, sel, dist, prep)
			staged = sel.Items()
		}
	})))
	g.cands += len(cands)
	g.pages += sess.PageReads()

	var st coldtier.Stats
	g.tier = append(g.tier, ns(rec.time("coldtier", parent, qi, func() {
		tiered, st, err = r.tiers[s].SearchAppend(nil, q, e.k)
	})))
	if err != nil {
		return nil, nil, fmt.Errorf("ladder cold tier rung: %w", err)
	}
	g.tScanned += st.Scanned
	g.tPruned += st.Pruned
	g.tFaults += st.PageFaults
	g.tHits += st.CacheHits
	return staged, tiered, nil
}

// searchRequest is one ladder search as the client sends it: a binary
// frame for the default collection.
func (e *env) searchRequest(q []float64) wire.Request {
	return wire.Request{Op: wire.OpSearch, Collection: e.col.name, K: e.k, Queries: [][]float64{q}}
}

// codec times the binary wire codec: the client half (encode the
// request, decode the response) and the server half (decode the request,
// encode the response).
func (e *env) codec(reqBody, respBody []byte, q []float64, items *[]wire.Item, rec *recorder, qi int) (client, srv time.Duration, err error) {
	var resp wire.Response
	client = rec.time("wire.client", "client", qi, func() {
		if _, err = wire.AppendRequest(nil, e.searchRequest(q)); err != nil {
			return
		}
		resp, err = wire.ReadResponse(bytes.NewReader(respBody))
	})
	if err != nil {
		return 0, 0, err
	}
	srv = rec.time("wire.server", "server", qi, func() {
		if _, err = wire.ReadRequest(bytes.NewReader(reqBody)); err != nil {
			return
		}
		_, err = wire.AppendResponse(nil, resp)
	})
	if len(resp.Results) == 1 {
		*items = resp.Results[0].Items
	}
	return client, srv, err
}

// topK sorts merged per-shard items by (distance, id) and truncates.
func topK(items []topk.Item, k int) []topk.Item {
	slices.SortFunc(items, topk.Compare)
	if len(items) > k {
		items = items[:k]
	}
	return items
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// layerMetrics turns the ladder's rungs into the per-layer metrics and
// prints the attribution table.
func (e *env) layerMetrics(all []rungs, r *replica, tail int) map[string]metric {
	col := func(f func(g rungs) float64) []float64 {
		v := make([]float64, len(all))
		for i, g := range all {
			v[i] = f(g)
		}
		return v
	}
	crit := func(g rungs) int { return argmax(g.core) }
	leaves := func(g rungs) float64 {
		c := crit(g)
		if e.cold {
			return g.tier[c]
		}
		return g.trans[c] + g.bbf[c] + g.scan[c]
	}
	self := map[string][]float64{
		"client":   col(func(g rungs) float64 { return g.client - g.server - g.wireC }),
		"wire":     col(func(g rungs) float64 { return g.wireC + g.wireS }),
		"server":   col(func(g rungs) float64 { return g.server - g.engine - g.wireS }),
		"engine":   col(func(g rungs) float64 { return g.engine - g.shard }),
		"shard":    col(func(g rungs) float64 { return g.shard - g.core[crit(g)] }),
		"core":     col(func(g rungs) float64 { return g.core[crit(g)] - leaves(g) }),
		"coldtier": col(func(g rungs) float64 { return g.tier[crit(g)] }),
	}
	chain := []string{"client", "wire", "server", "engine", "shard", "core"}
	if e.cold {
		chain = append(chain, "coldtier")
	} else {
		self["transform"] = col(func(g rungs) float64 { return g.trans[crit(g)] })
		self["bbforest"] = col(func(g rungs) float64 { return g.bbf[crit(g)] })
		self["scan"] = col(func(g rungs) float64 { return g.scan[crit(g)] })
		chain = append(chain, "transform", "bbforest", "scan")
	}
	clientMed := median(col(func(g rungs) float64 { return g.client }))
	attributed := 0.0
	for _, l := range chain {
		attributed += median(self[l])
	}
	unattributed := 1 - attributed/clientMed

	var nCands, nLive, tScanned, tPruned, tFaults, tHits float64
	for _, g := range all {
		nCands += float64(g.cands)
		tScanned += float64(g.tScanned)
		tPruned += float64(g.tPruned)
		tFaults += float64(g.tFaults)
		tHits += float64(g.tHits)
	}
	var mSum, mCount float64
	var resident int64
	for _, sub := range r.shards {
		mSum += float64(sub.M())
		mCount++
	}
	for _, t := range r.tiers {
		resident += t.Stats().ResidentBytes
	}
	for _, g := range all {
		nLive += float64(g.live)
	}
	mean := func(f func(g rungs) float64) float64 { return sum(col(f)) / float64(len(all)) }
	msm := func(v []float64) float64 { return median(v) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dim := e.col.dim
	m := map[string]metric{
		"kernel.ns_per_point":            {median(col(func(g rungs) float64 { return g.kernel / float64(g.live) })), "ns"},
		"kernel.bytes_per_query":         {mean(func(g rungs) float64 { return float64(g.live * dim * 8) }), "bytes"},
		"transform.bound_ms":             {msm(col(func(g rungs) float64 { return g.trans[crit(g)] })), "ms"},
		"bbforest.filter_ms":             {msm(col(func(g rungs) float64 { return g.bbf[crit(g)] })), "ms"},
		"bbforest.nodes_per_query":       {mean(func(g rungs) float64 { return float64(g.nodes) }), "count"},
		"bbforest.leaves_per_query":      {mean(func(g rungs) float64 { return float64(g.leaves) }), "count"},
		"bbforest.candidate_ratio":       {ratio(nCands, nLive), "ratio"},
		"partition.m":                    {mSum / mCount, "count"},
		"scan.refine_ms":                 {msm(col(func(g rungs) float64 { return g.scan[crit(g)] })), "ms"},
		"scan.distance_comps_per_query":  {mean(func(g rungs) float64 { return float64(g.cands) }), "count"},
		"disk.page_reads_per_query":      {mean(func(g rungs) float64 { return float64(g.pages) }), "count"},
		"core.search_ms":                 {msm(col(func(g rungs) float64 { return g.core[crit(g)] })), "ms"},
		"core.self_ms":                   {msm(self["core"]), "ms"},
		"core.filter_search_ms":          {msm(col(func(g rungs) float64 { return g.filter[argmax(g.filter)] })), "ms"},
		"core.tail_points":               {float64(tail), "count"},
		"shard.search_ms":                {msm(col(func(g rungs) float64 { return g.shard })), "ms"},
		"shard.critical_ms":              {msm(col(func(g rungs) float64 { return g.core[crit(g)] })), "ms"},
		"shard.cpu_ms":                   {msm(col(func(g rungs) float64 { return sum(g.core) })), "ms"},
		"shard.self_ms":                  {msm(self["shard"]), "ms"},
		"engine.submit_ms":               {msm(col(func(g rungs) float64 { return g.engine })), "ms"},
		"engine.queue_wait_ms":           {msm(col(func(g rungs) float64 { return g.queue })), "ms"},
		"engine.self_ms":                 {msm(self["engine"]), "ms"},
		"engine.cache_hit_ratio":         {ratio(float64(e.cacheHits), float64(e.cacheQueries)), "ratio"},
		"engine.repeated_query_share":    {e.repeatedShare(), "ratio"},
		"wire.codec_us":                  {median(self["wire"]) / 1e3, "us"},
		"server.handler_ms":              {msm(col(func(g rungs) float64 { return g.server })), "ms"},
		"server.self_ms":                 {msm(self["server"]), "ms"},
		"server.shed_ratio":              {ratio(float64(e.sheds), float64(len(e.col.queries))), "ratio"},
		"client.loopback_ms":             {clientMed / 1e6, "ms"},
		"client.self_ms":                 {msm(self["client"]), "ms"},
		"ladder.unattributed_ratio":      {unattributed, "ratio"},
		"coldtier.search_ms":             {msm(col(func(g rungs) float64 { return g.tier[argmax(g.tier)] })), "ms"},
		"coldtier.pruned_ratio":          {ratio(tPruned, tScanned), "ratio"},
		"coldtier.page_faults_per_query": {tFaults / float64(len(all)), "count"},
		"coldtier.cache_hit_ratio":       {ratio(tHits, tHits+tFaults), "ratio"},
		"coldtier.resident_mb":           {float64(resident) / (1 << 20), "MB"},
	}

	out := e.o.out
	fmt.Fprintf(out, "attribution (%s, %d ladder queries, medians; self = rung minus the rungs it calls):\n", e.w, len(all))
	for _, l := range chain {
		v := median(self[l])
		fmt.Fprintf(out, "  %-10s self %10.4f ms  %6.1f%% of client  (mean %.4f)\n", l, v/1e6, 100*v/clientMed, sum(self[l])/float64(len(all))/1e6)
	}
	fmt.Fprintf(out, "  shard wall %.4f ms against CPU (sum over shards) %.4f ms, critical shard %.4f ms\n",
		m["shard.search_ms"].Value, m["shard.cpu_ms"].Value, m["shard.critical_ms"].Value)
	flag := ""
	if unattributed > 0.10 || unattributed < -0.10 {
		flag = "  <-- FLAG: more than 10% of the client rung is unattributed"
	}
	fmt.Fprintf(out, "  unattributed %.1f%% of client %.4f ms%s\n", 100*unattributed, clientMed/1e6, flag)
	fmt.Fprintf(out, "  partition.m %.2f, candidate ratio %.4f (candidates ÷ live points)\n",
		m["partition.m"].Value, m["bbforest.candidate_ratio"].Value)
	return m
}

// repeatedShare is the share of workload searches whose query was
// already sent in the run: 0 by construction, recorded so a cache hit
// can never hide in the figures.
func (e *env) repeatedShare() float64 {
	seen := map[uint64]bool{}
	rep := 0
	for _, q := range e.col.queries {
		h := hashPoint(q)
		if seen[h] {
			rep++
		}
		seen[h] = true
	}
	if len(e.col.queries) == 0 {
		return 0
	}
	return float64(rep) / float64(len(e.col.queries))
}

// writeLadder walks tagged inserts down the write path on a fresh
// collection with the same spec as the workload's collection:
// durable shard insert, the tag store's second write, engine, server
// handler, client. WAL and tag-log growth are measured on the shard and
// tag rungs.
func (e *env) writeLadder(rec *recorder) (map[string]metric, error) {
	c := e.col
	served, err := e.st.reg.Get(c.name)
	if err != nil {
		return nil, err
	}
	const name = "ladder-write"
	spec := wire.CollectionSpec{Divergence: c.div.Name(), Dim: c.dim, M: served.Handle.M(), Shards: served.Handle.Shards()}
	if _, err := e.st.srv.CreateCollection(name, spec); err != nil {
		return nil, fmt.Errorf("write ladder: %w", err)
	}
	col, err := e.st.reg.Get(name)
	if err != nil {
		return nil, err
	}
	colDir, err := findDir(e.st.root, name)
	if err != nil {
		return nil, err
	}
	pts := c.spare
	if len(pts) < 4*ladderWrites {
		return nil, fmt.Errorf("write ladder: %d spare points, need %d", len(pts), 4*ladderWrites)
	}
	tags := []string{tagName(0)}
	var shardT, tagT, engT, srvT, cliT []float64
	wal0 := col.Handle.WALSize()
	tag0, err := dirBytes(colDir, "durable")
	if err != nil {
		return nil, err
	}
	for i := 0; i < ladderWrites; i++ {
		var id int
		shardT = append(shardT, ns(rec.time("shard.insert", "", i, func() { id, err = col.Handle.Insert(pts[i]) })))
		if err != nil {
			return nil, fmt.Errorf("write ladder shard rung: %w", err)
		}
		tagT = append(tagT, ns(rec.time("collection.tags_add", "", i, func() { err = col.Tags.Add(id, tags) })))
		if err != nil {
			return nil, fmt.Errorf("write ladder tag rung: %w", err)
		}
	}
	walBytes := float64(col.Handle.WALSize() - wal0)
	tag1, err := dirBytes(colDir, "durable")
	if err != nil {
		return nil, err
	}
	eng := engine.New(col.Handle, engine.Config{CacheSize: -1})
	defer eng.Close()
	for i := 0; i < ladderWrites; i++ {
		p := pts[ladderWrites+i]
		engT = append(engT, ns(rec.time("engine.insert", "server.insert", i, func() { _, err = eng.Insert(p) })))
		if err != nil {
			return nil, fmt.Errorf("write ladder engine rung: %w", err)
		}
	}
	handler := e.st.srv.Handler()
	for i := 0; i < ladderWrites; i++ {
		body, err := json.Marshal(wire.InsertRequest{P: pts[2*ladderWrites+i], Tags: tags})
		if err != nil {
			return nil, err
		}
		var resp *httptest.ResponseRecorder
		srvT = append(srvT, ns(rec.time("server.insert", "client.insert", i, func() {
			req := httptest.NewRequest(http.MethodPost, "/v2/collections/"+name+"/insert", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp = httptest.NewRecorder()
			handler.ServeHTTP(resp, req)
		})))
		if resp.Code != http.StatusOK {
			return nil, fmt.Errorf("write ladder server rung: status %d", resp.Code)
		}
	}
	cl := e.st.newClient(false)
	defer cl.Close()
	for i := 0; i < ladderWrites; i++ {
		p := pts[3*ladderWrites+i]
		cliT = append(cliT, ns(rec.time("client.insert", "", i, func() {
			_, err = cl.Collection(name).InsertTagged(context.Background(), p, tags)
		})))
		if err != nil {
			return nil, fmt.Errorf("write ladder client rung: %w", err)
		}
	}
	e.t.attempted.Add(4 * ladderWrites)
	perInsert := walBytes / ladderWrites
	return map[string]metric{
		"shard.insert_ms":                 {median(shardT) / 1e6, "ms"},
		"wal.bytes_per_insert":            {perInsert, "bytes"},
		"wal.write_amplification":         {perInsert / float64(c.dim*8), "ratio"},
		"collection.tags_add_ms":          {median(tagT) / 1e6, "ms"},
		"collection.tag_bytes_per_insert": {float64(tag1-tag0) / ladderWrites, "bytes"},
		"engine.insert_ms":                {median(engT) / 1e6, "ms"},
		"server.insert_handler_ms":        {median(srvT) / 1e6, "ms"},
		"client.insert_ms":                {median(cliT) / 1e6, "ms"},
	}, nil
}

// findDir locates the directory named name under root.
func findDir(root, name string) (string, error) {
	var found string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == name && found == "" {
			found = path
			return filepath.SkipDir
		}
		return nil
	})
	if err == nil && found == "" {
		err = fmt.Errorf("no directory %q under %s", name, root)
	}
	return found, err
}

// writeSpans keeps the traced run's spans: written next to the work
// directory when the run ends.
func (e *env) writeSpans(rec *recorder) {
	if e.o.spanFile == "" {
		return
	}
	raw, err := json.Marshal(rec.spans)
	if err == nil {
		err = os.WriteFile(e.o.spanFile, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(e.o.out, "spans not written:", err)
		return
	}
	names := map[string]int{}
	for _, s := range rec.spans {
		names[strings.TrimRight(s.Name, "0123456789.")]++
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(e.o.out, "spans: %d written to %s (%s)\n", len(rec.spans), e.o.spanFile, strings.Join(keys, ", "))
}

package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/client"
	"brepartition/internal/collection"
	"brepartition/internal/core"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

// multiFixture is a registry-backed server over a temp root plus a
// client for each protocol.
type multiFixture struct {
	reg  *collection.Registry
	srv  *Server
	ts   *httptest.Server
	json *client.Client
	bin  *client.Client
}

func newMultiFixture(t *testing.T, cfg Config) *multiFixture {
	t.Helper()
	root := t.TempDir()
	reg, err := collection.Open(root, collection.Options{
		Durable: shard.DurableOptions{Core: core.Options{Seed: 2}, CheckpointBytes: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg, cfg)
	ts := httptest.NewServer(srv.Handler())
	f := &multiFixture{
		reg:  reg,
		srv:  srv,
		ts:   ts,
		json: client.New(ts.URL, client.Options{}),
		bin:  client.New(ts.URL, client.Options{Binary: true}),
	}
	t.Cleanup(func() {
		f.json.Close()
		f.bin.Close()
		ts.Close()
		srv.Close()
		reg.Close()
	})
	return f
}

// tenantSpec pairs a collection spec with its divergence and points for
// the oracle.
type tenantSpec struct {
	name   string
	div    bregman.Divergence
	spec   wire.CollectionSpec
	points [][]float64
}

func oracleTenants(t *testing.T) []tenantSpec {
	t.Helper()
	return []tenantSpec{
		{"docs", bregman.SquaredEuclidean{},
			wire.CollectionSpec{Divergence: "l2", Dim: 6, M: 3, Shards: 2}, testPoints(140, 6, 11)},
		{"audio", bregman.ItakuraSaito{},
			wire.CollectionSpec{Divergence: "is", Dim: 5, M: 4, Shards: 3}, testPoints(170, 5, 12)},
		{"topics", bregman.GeneralizedKL{},
			wire.CollectionSpec{Divergence: "gkl", Dim: 4, M: 2}, testPoints(110, 4, 13)},
	}
}

// TestMultiCollectionOracle serves three collections with different
// divergences from one process and checks every one answers
// bit-identically to an in-process single-index oracle, over both
// protocols, under concurrent load.
func TestMultiCollectionOracle(t *testing.T) {
	// Six concurrent drivers (3 collections × 2 protocols): keep the
	// admission limit above them regardless of the host's GOMAXPROCS.
	f := newMultiFixture(t, Config{MaxInFlight: 32})
	ctx := context.Background()
	tenants := oracleTenants(t)

	oracles := make(map[string]*core.Index, len(tenants))
	for _, tn := range tenants {
		if _, err := f.json.CreateCollection(ctx, tn.name, tn.spec); err != nil {
			t.Fatalf("create %s: %v", tn.name, err)
		}
		col := f.json.Collection(tn.name)
		for _, p := range tn.points {
			if _, err := col.Insert(ctx, p); err != nil {
				t.Fatalf("insert %s: %v", tn.name, err)
			}
		}
		oracle, err := core.Build(tn.div, tn.points, core.Options{M: tn.spec.M, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		oracles[tn.name] = oracle
	}

	infos, err := f.json.Collections(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("server lists %d collections, want 3", len(infos))
	}

	const k = 5
	var wg sync.WaitGroup
	errc := make(chan error, 2*len(tenants))
	for _, tn := range tenants {
		for _, cl := range []*client.Client{f.json, f.bin} {
			wg.Add(1)
			go func(tn tenantSpec, cl *client.Client) {
				defer wg.Done()
				col := cl.Collection(tn.name)
				for qi := 0; qi < 24; qi++ {
					q := tn.points[(qi*7)%len(tn.points)]
					want, err := oracles[tn.name].Search(q, k)
					if err != nil {
						errc <- err
						return
					}
					got, err := col.Search(ctx, q, k)
					if err != nil {
						errc <- err
						return
					}
					wantItems := make([]wire.Item, len(want.Items))
					for i, it := range want.Items {
						wantItems[i] = wire.Item{ID: it.ID, Distance: it.Score}
					}
					if !reflect.DeepEqual(got, wantItems) {
						errc <- errors.New(tn.name + ": remote answer diverged from oracle")
						return
					}
				}
			}(tn, cl)
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Binary frames without a name route to "default", which does not
	// exist here: the error frame must carry the machine-readable code.
	_, err = f.bin.Collection(wire.DefaultCollection).Search(ctx, tenants[0].points[0][:6], k)
	if !errors.Is(err, wire.ErrNoSuchCollection) {
		t.Fatalf("default-collection search on pure multi-tenant server: %v", err)
	}
	_, err = f.json.Collection("ghost").Search(ctx, tenants[0].points[0][:6], k)
	if !errors.Is(err, wire.ErrNoSuchCollection) {
		t.Fatalf("json ghost search: %v", err)
	}
}

// TestFilteredSearchOracle pins filtered top-k over HTTP against a
// brute-force scan restricted to the predicate: exact same ids and
// distances, for both any- and all-mode filters.
func TestFilteredSearchOracle(t *testing.T) {
	f := newMultiFixture(t, Config{})
	ctx := context.Background()
	div := bregman.GeneralizedKL{}
	pts := testPoints(160, 5, 21)
	spec := wire.CollectionSpec{Divergence: "gkl", Dim: 5, M: 3, Shards: 2}
	if _, err := f.json.CreateCollection(ctx, "tagged", spec); err != nil {
		t.Fatal(err)
	}
	col := f.json.Collection("tagged")

	tagsOf := func(id int) []string {
		tags := []string{"corpus"}
		if id%2 == 0 {
			tags = append(tags, "even")
		}
		if id%3 == 0 {
			tags = append(tags, "third")
		}
		return tags
	}
	for i, p := range pts {
		id, err := col.InsertTagged(ctx, p, tagsOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("insert id %d, want %d", id, i)
		}
	}

	// Deleted points must not surface through a filter either.
	deleted := map[int]bool{4: true, 6: true, 30: true}
	for id := range deleted {
		if ok, err := col.Delete(ctx, id); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
	}

	brute := func(q []float64, k int, keep func(int) bool) []wire.Item {
		var items []wire.Item
		for id, p := range pts {
			if deleted[id] || !keep(id) {
				continue
			}
			// The index answers D_φ(p, q): point first, query second (the
			// divergence is asymmetric).
			items = append(items, wire.Item{ID: id, Distance: bregman.Distance(div, p, q)})
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].Distance != items[j].Distance {
				return items[i].Distance < items[j].Distance
			}
			return items[i].ID < items[j].ID
		})
		if len(items) > k {
			items = items[:k]
		}
		return items
	}

	const k = 7
	cases := []struct {
		filter wire.Filter
		keep   func(int) bool
	}{
		{wire.Filter{Tags: []string{"even"}}, func(id int) bool { return id%2 == 0 }},
		{wire.Filter{Tags: []string{"even", "third"}, Mode: wire.FilterAll},
			func(id int) bool { return id%6 == 0 }},
		{wire.Filter{Tags: []string{"even", "third"}, Mode: wire.FilterAny},
			func(id int) bool { return id%2 == 0 || id%3 == 0 }},
	}
	for ci, tc := range cases {
		for qi := 0; qi < 12; qi++ {
			q := pts[(qi*11)%len(pts)]
			got, err := col.SearchFiltered(ctx, q, k, tc.filter)
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			want := brute(q, k, tc.keep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d query %d: filtered top-k diverged from brute force\ngot  %v\nwant %v",
					ci, qi, got, want)
			}
		}
	}

	// Filter misuse surfaces as ErrBadFilter.
	if _, err := col.SearchFiltered(ctx, pts[0], k, wire.Filter{}); !errors.Is(err, wire.ErrBadFilter) {
		t.Fatalf("empty filter: %v", err)
	}
}

// TestQuotaIsolation gives one tenant a tight admission quota and
// hammers it: the noisy tenant sheds with the quota error code while a
// quiet tenant's traffic keeps flowing untouched.
func TestQuotaIsolation(t *testing.T) {
	f := newMultiFixture(t, Config{MaxInFlight: 64})
	ctx := context.Background()
	pts := testPoints(80, 4, 31)
	noisySpec := wire.CollectionSpec{
		Divergence: "l2", Dim: 4, M: 2,
		Quota: &wire.Quota{MaxInflight: 1, MaxQueue: 1},
	}
	quietSpec := wire.CollectionSpec{Divergence: "l2", Dim: 4, M: 2}
	if _, err := f.json.CreateCollection(ctx, "noisy", noisySpec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.json.CreateCollection(ctx, "quiet", quietSpec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"noisy", "quiet"} {
		col := f.json.Collection(name)
		for _, p := range pts {
			if _, err := col.Insert(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Deterministic shed: fill the noisy tenant's quota queue so the next
	// request on either protocol must shed with the typed quota error.
	tn, err := f.srv.tenant("noisy")
	if err != nil {
		t.Fatal(err)
	}
	filled := 0
	for len(tn.quota.queue) < cap(tn.quota.queue) {
		tn.quota.queue <- struct{}{}
		filled++
	}
	if _, err := f.json.Collection("noisy").Search(ctx, pts[0], 3); !errors.Is(err, wire.ErrQuota) {
		t.Fatalf("json search against a full quota: %v", err)
	}
	if _, err := f.bin.Collection("noisy").Search(ctx, pts[0], 3); !errors.Is(err, wire.ErrQuota) {
		t.Fatalf("binary search against a full quota: %v", err)
	}
	// The quiet tenant keeps answering while the noisy one is saturated.
	if _, err := f.json.Collection("quiet").Search(ctx, pts[0], 3); err != nil {
		t.Fatalf("quiet tenant disturbed by saturated neighbour: %v", err)
	}
	for ; filled > 0; filled-- {
		<-tn.quota.queue
	}

	// Under live 8-way hammering of the tight quota, the quiet tenant's
	// concurrent traffic must stay untouched and the noisy tenant must
	// still complete some work (shed excess, not everything).
	var wg sync.WaitGroup
	var mu sync.Mutex
	var noisyOK int
	quietErrs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			noisy := f.json.Collection("noisy")
			for i := 0; i < 16; i++ {
				_, err := noisy.Search(ctx, pts[(w+i)%len(pts)], 3)
				if err == nil {
					mu.Lock()
					noisyOK++
					mu.Unlock()
				} else if !errors.Is(err, wire.ErrQuota) {
					quietErrs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			quiet := f.json.Collection("quiet")
			for i := 0; i < 16; i++ {
				if _, err := quiet.Search(ctx, pts[(w+i)%len(pts)], 3); err != nil {
					quietErrs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-quietErrs:
		t.Fatalf("unexpected error under hammering: %v", err)
	default:
	}
	if noisyOK == 0 {
		t.Fatal("noisy tenant fully starved: quota must shed excess, not everything")
	}
}

// TestCollectionLifecycleHTTP drives create → insert (tagged) → drop →
// recreate through the HTTP surface, then reopens the whole registry
// and checks everything durable survived.
func TestCollectionLifecycleHTTP(t *testing.T) {
	root := t.TempDir()
	open := func() (*collection.Registry, *Server, *httptest.Server, *client.Client) {
		reg, err := collection.Open(root, collection.Options{
			Durable: shard.DurableOptions{Core: core.Options{Seed: 2}, CheckpointBytes: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewMulti(reg, Config{})
		ts := httptest.NewServer(srv.Handler())
		return reg, srv, ts, client.New(ts.URL, client.Options{})
	}
	reg, srv, ts, cl := open()
	ctx := context.Background()
	pts := testPoints(40, 3, 41)

	if _, err := cl.CreateCollection(ctx, "keep", wire.CollectionSpec{Divergence: "is", Dim: 3, M: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateCollection(ctx, "keep", wire.CollectionSpec{Divergence: "is", Dim: 3}); !errors.Is(err, wire.ErrCollectionExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := cl.CreateCollection(ctx, "bad name!", wire.CollectionSpec{Divergence: "is", Dim: 3}); !errors.Is(err, wire.ErrBadCollection) {
		t.Fatalf("bad name create: %v", err)
	}
	if _, err := cl.CreateCollection(ctx, "doomed", wire.CollectionSpec{Divergence: "l2", Dim: 3}); err != nil {
		t.Fatal(err)
	}
	keep := cl.Collection("keep")
	for i, p := range pts {
		tags := []string{"all"}
		if i < 10 {
			tags = append(tags, "head")
		}
		if _, err := keep.InsertTagged(ctx, p, tags); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.DropCollection(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := cl.DropCollection(ctx, "doomed"); !errors.Is(err, wire.ErrNoSuchCollection) {
		t.Fatalf("double drop: %v", err)
	}

	// Restart the whole serving stack over the same root.
	cl.Close()
	ts.Close()
	srv.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg, srv, ts, cl = open()
	defer func() { cl.Close(); ts.Close(); srv.Close(); reg.Close() }()

	infos, err := cl.Collections(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "keep" || infos[0].N != len(pts) {
		t.Fatalf("reopened collections: %+v", infos)
	}
	info, err := cl.CollectionInfo(ctx, "keep")
	if err != nil || info.Spec.Divergence != "is" || info.Spec.Dim != 3 {
		t.Fatalf("info: %+v %v", info, err)
	}
	// Tags survived the restart: a head-filtered search only answers the
	// first ten ids.
	got, err := cl.Collection("keep").SearchFiltered(ctx, pts[5], 3, wire.Filter{Tags: []string{"head"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range got {
		if it.ID >= 10 {
			t.Fatalf("head filter leaked id %d after restart", it.ID)
		}
	}
	if got[0].ID != 5 || got[0].Distance != 0 {
		t.Fatalf("filtered top hit: %+v", got[0])
	}
}

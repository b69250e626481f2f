// Command breserved serves a durable BrePartition index over HTTP: exact
// kNN, probabilistically-guaranteed approximate, and range search plus
// write-ahead-logged Insert/Delete, behind admission control, per-request
// deadlines, Prometheus metrics, and hot snapshot reload (see
// internal/server and DESIGN.md, "Serving").
//
// Usage:
//
//	breserved -index durable/                          # serve an existing durable root
//	breserved -index durable/ -bootstrap sift.bin      # build it first from a bregen file
//	breserved -index durable/ -addr :7600 -sync 1
//
// Endpoints: POST /v1/{search,approx,range,insert,delete} (JSON),
// POST /v1/frame (binary), POST /admin/{reload,checkpoint,compact},
// GET /healthz, GET /metrics. With -maintain set, a background maintainer
// sweeps per-shard health and compacts decayed shards online (queries
// never block; see internal/maintain).
//
// Observability: -trace-sample samples end-to-end request traces into
// per-stage latency histograms on /metrics, -slow-query-ms logs a
// structured JSON line for every search slower than the threshold, and
// -debug-addr serves net/http/pprof on a separate listener (see
// DESIGN.md, "Observability").
//
// On SIGINT/SIGTERM the server drains gracefully: in-flight HTTP
// requests finish, each collection's engine completes its queued queries,
// and the WAL is synced and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"brepartition"
	"brepartition/internal/dataset"
)

func main() {
	addr := flag.String("addr", ":7600", "listen address (host:port; port 0 picks a free port)")
	index := flag.String("index", "", "durable index root directory (required)")
	bootstrap := flag.String("bootstrap", "", "bregen dataset file: build the durable index from it when -index does not exist yet")
	div := flag.String("div", "", "expected divergence name; refuse to serve an index built with another (empty = serve whatever the snapshot carries)")
	shards := flag.Int("shards", 0, "shard count when bootstrapping (0 = 4)")
	m := flag.Int("m", 0, "partitions when bootstrapping (0 = derive via Theorem 4; set explicitly when the cost-model fit fails on a dataset)")
	syncEvery := flag.Int("sync", 0, "fsync policy: 0/1 every mutation (group commit), N>1 every N, negative async")
	syncInterval := flag.Duration("sync-interval", 0, "async fsync interval (with -sync < 0)")
	workers := flag.Int("workers", 0, "engine query workers (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 0, "result cache entries (0 = 1024, negative disables)")
	maxInFlight := flag.Int("max-inflight", 0, "search admission limit; excess sheds 429 (0 = 4×GOMAXPROCS)")
	maxMutations := flag.Int("max-mutations", 0, "mutation admission limit (0 = 64)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 2s)")
	maintain := flag.Duration("maintain", 0, "background shard-maintenance sweep interval (0 disables; POST /admin/compact still works)")
	maintainMinLive := flag.Float64("maintain-min-live", 0, "compact a shard when its live/resident ratio drops below this (0 = 0.5)")
	maintainMaxTail := flag.Float64("maintain-max-tail", 0, "compact a shard when its post-build insert fraction exceeds this (0 = 0.25)")
	maintainMinPoints := flag.Int("maintain-min-points", 0, "never compact shards smaller than this (0 = 64)")
	multi := flag.Bool("collections", false, "serve -index as a multi-collection registry: named indexes under /v2/collections/{name}, created live via PUT (no pre-built default index required)")
	coldTier := flag.Bool("coldtier", false, "serve exact searches from a cold tier: a resident compressed-domain VA pass over mmap-paged point storage, so the index can exceed RAM (answers unchanged)")
	coldCache := flag.Int64("coldtier-cache", 0, "cold-tier block-cache budget in bytes per shard (0 = 16 MiB, negative = unbounded)")
	coldBits := flag.Int("coldtier-bits", 0, "cold-tier VA grid bits per extended dimension (0 = 6, max 16)")
	coldPrefetch := flag.Int("coldtier-prefetch", 0, "cold-tier async survivor-page prefetch depth (0 = 4, negative disables)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of search requests to trace end-to-end (0 disables, 1 traces every request); traced requests populate the breserved_request_duration_seconds stage histograms")
	slowQueryMS := flag.Int("slow-query-ms", 0, "slow-query threshold in milliseconds: search requests slower than this log one structured JSON line to stderr with the full stage breakdown (0 disables; enabling traces every search request)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /debug/pprof (empty disables; keep it off the serving port)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGTERM")
	flag.Parse()

	if *index == "" {
		fmt.Fprintln(os.Stderr, "breserved: missing -index")
		flag.Usage()
		os.Exit(2)
	}
	// Resolve -div up front: a typo fails fast with the registered names
	// enumerated rather than after a long index load.
	var wantDiv brepartition.Divergence
	if *div != "" {
		var err error
		wantDiv, err = brepartition.DivergenceByName(*div)
		if err != nil {
			fail(err)
		}
	}

	dopts := &brepartition.DurableOptions{
		Shards:       *shards,
		SyncEvery:    *syncEvery,
		SyncInterval: *syncInterval,
	}
	dopts.Core.M = *m

	if *bootstrap != "" {
		if _, err := os.Stat(*index); errors.Is(err, os.ErrNotExist) {
			if err := bootstrapIndex(*bootstrap, *index, wantDiv, dopts); err != nil {
				fail(err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "breserved: -index %s already exists, ignoring -bootstrap\n", *index)
		}
	}

	sopts := &brepartition.ServerOptions{
		MaxInFlight:       *maxInFlight,
		MaxMutations:      *maxMutations,
		Timeout:           *timeout,
		MaintainInterval:  *maintain,
		MaintainMinLive:   *maintainMinLive,
		MaintainMaxTail:   *maintainMaxTail,
		MaintainMinPoints: *maintainMinPoints,
	}
	sopts.Engine.Workers = *workers
	sopts.Engine.CacheSize = *cache
	sopts.TraceSample = *traceSample
	sopts.SlowQueryThreshold = time.Duration(*slowQueryMS) * time.Millisecond

	serveOpts := []brepartition.ServeOption{
		brepartition.WithDurableConfig(*dopts),
		brepartition.WithServerConfig(*sopts),
	}
	if *coldTier {
		serveOpts = append(serveOpts, brepartition.WithColdTier(brepartition.ColdTierOptions{
			Bits:       *coldBits,
			CacheBytes: *coldCache,
			Prefetch:   *coldPrefetch,
		}))
	}

	var handler http.Handler
	var closeServing func() error
	if *multi {
		cs, err := brepartition.OpenCollections(*index, serveOpts...)
		if err != nil {
			fail(err)
		}
		handler, closeServing = cs.Handler(), cs.Close
		fmt.Printf("breserved: serving %d collection(s)\n", len(cs.List()))
	} else {
		srv, err := brepartition.NewServer(*index, serveOpts...)
		if err != nil {
			fail(err)
		}
		// Sanity-gate the divergence: serving ISD traffic from an L2 index
		// is a silent-wrong-answers bug, so refuse loudly.
		if wantDiv != nil && srv.Divergence().Name() != wantDiv.Name() {
			srv.Close()
			fail(fmt.Errorf("index %s was built with divergence %q, -div asked for %q",
				*index, srv.Divergence().Name(), wantDiv.Name()))
		}
		handler, closeServing = srv.Handler(), srv.Close
	}

	// Profiling stays on its own listener so /debug/pprof is never
	// reachable through the serving port's admission control (or by
	// serving-port clients at all).
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("breserved: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "breserved: pprof:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Printf("breserved: listening on %s (index %s)\n", ln.Addr(), *index)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}

	fmt.Println("breserved: draining")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "breserved: shutdown:", err)
	}
	if err := closeServing(); err != nil {
		fail(err)
	}
	fmt.Println("breserved: stopped")
}

// bootstrapIndex builds a durable index at root from a bregen dataset
// file.
func bootstrapIndex(dataPath, root string, wantDiv brepartition.Divergence, dopts *brepartition.DurableOptions) error {
	ds, err := dataset.ReadFile(dataPath)
	if err != nil {
		return err
	}
	div, err := brepartition.DivergenceByName(ds.Divergence)
	if err != nil {
		return err
	}
	if wantDiv != nil && wantDiv.Name() != div.Name() {
		return fmt.Errorf("breserved: dataset %s uses divergence %q, -div asked for %q",
			dataPath, div.Name(), wantDiv.Name())
	}
	fmt.Printf("breserved: bootstrapping %s from %s: n=%d d=%d divergence=%s\n",
		root, dataPath, ds.N(), ds.Dim(), div.Name())
	start := time.Now()
	dx, err := brepartition.BuildDurable(div, ds.Points, root, dopts)
	if err != nil {
		return err
	}
	if err := dx.Close(); err != nil {
		return err
	}
	fmt.Printf("breserved: bootstrap done in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "breserved:", err)
	os.Exit(1)
}

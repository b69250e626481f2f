package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"brepartition/internal/client"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/server"
	"brepartition/internal/shard"
)

// Serve measures the breserved serving stack under OPEN-LOOP load — the
// regime closed-loop benchmarks cannot show: a generator fires requests
// at a fixed offered rate regardless of completions, exactly like remote
// user traffic, and the interesting outputs are the achieved rate, the
// shed rate (admission control turning overload into fast 429s instead
// of unbounded queueing), and the latency of the requests that were
// served. The offered-rate ladder climbs past the box's capacity so the
// top rows show the load-shed regime.
func (e *Env) Serve(workers int) []Table {
	name := "audio"
	ds := e.Dataset(name)
	dim := len(ds.Points[0])

	dir, err := os.MkdirTemp("", "brebench-serve-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	root := filepath.Join(dir, "durable")
	opts := shard.DurableOptions{
		Shards: 4,
		Core: core.Options{
			Tree: e.treeCfg(),
			Disk: e.diskCfg(ds),
			Seed: e.cfg.Seed,
		},
		CheckpointBytes: -1,
	}
	dx, err := shard.BuildDurable(e.divergence(ds), ds.Points, root, opts)
	if err != nil {
		panic(fmt.Sprintf("serve: %v", err))
	}
	h := shard.NewHandle(dx)
	defer h.Close()
	// The result cache is off: every rung, and the calibration burst,
	// measures searches the index actually runs.
	srv := server.New(h,
		func() (*shard.Durable, error) { return shard.OpenDurable(root, opts) },
		server.Config{Engine: engine.Config{Workers: workers, CacheSize: -1}})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	cl := client.New(ts.URL, client.Options{Binary: true, Timeout: 5 * time.Second})
	defer cl.Close()

	// Queries are the dataset's own points taken in turn, so no query
	// repeats until the whole dataset has been asked.
	pool := &queryPool{points: ds.Points}
	const k = 10

	// Calibrate capacity with a short closed-loop burst, then ladder the
	// offered rate from comfortable to ~4x capacity.
	capacityQPS := calibrate(cl, pool, k)
	rates := []float64{0.5 * capacityQPS, capacityQPS, 2 * capacityQPS, 4 * capacityQPS}

	tbl := Table{
		Title: fmt.Sprintf("Open-loop serving — %s (dim=%d, k=%d, workers=%d, binary protocol, result cache off; ~%.0f QPS closed-loop capacity)",
			name, dim, k, srv.Engine().Workers(), capacityQPS),
		Header: []string{"offered QPS", "sent/offered", "generator lag p99", "achieved QPS", "shed rate", "p50", "p99"},
	}
	for _, rate := range rates {
		res := openLoop(cl, pool, k, rate, 700*time.Millisecond)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%d/%d", res.sent, res.offered),
			res.lagP99.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%.0f", res.achievedQPS),
			fmt.Sprintf("%.1f%%", 100*res.shedRate),
			res.p50.Round(10 * time.Microsecond).String(),
			res.p99.Round(10 * time.Microsecond).String(),
		})
	}
	return []Table{tbl}
}

// queryPool hands out the dataset's points as queries in turn; safe for
// concurrent use.
type queryPool struct {
	points [][]float64
	next   atomic.Int64
}

func (p *queryPool) get() []float64 {
	i := p.next.Add(1) - 1
	return p.points[int(i%int64(len(p.points)))]
}

// calibrate estimates the box's closed-loop serving capacity with a
// short saturated burst of distinct queries.
func calibrate(cl *client.Client, pool *queryPool, k int) float64 {
	const dur = 300 * time.Millisecond
	var done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Search(context.Background(), pool.get(), k); err == nil {
					done.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	qps := float64(done.Load()) / time.Since(start).Seconds()
	if qps < 1 {
		qps = 1
	}
	return qps
}

type openLoopResult struct {
	// offered is rate × window, the requests the schedule holds; sent is
	// how many the generator got out before the window closed.
	offered, sent int
	// lagP99 is how late the generator sent, against each request's due
	// time (99th percentile).
	lagP99      time.Duration
	achievedQPS float64
	shedRate    float64
	// p50 and p99 are served-request latencies measured from the due
	// time, so generator lag counts against them.
	p50, p99 time.Duration
}

// openLoop offers rate requests per second for dur: request i is due at
// start + i/rate, whatever has completed, and is sent on its own
// goroutine at its due time (at once if the generator is behind). Sends
// stop when the window closes; the result reports what was sent against
// what was offered, how late the generator ran, and what the server
// absorbed.
func openLoop(cl *client.Client, pool *queryPool, k int, rate float64, dur time.Duration) openLoopResult {
	var (
		mu   sync.Mutex
		lats []time.Duration
		ok   atomic.Int64
		shed atomic.Int64
		wg   sync.WaitGroup
	)
	offered := int(rate * dur.Seconds())
	lags := make([]time.Duration, 0, offered)
	start := time.Now()
	for i := 0; i < offered; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		if now.Sub(start) >= dur {
			break
		}
		lags = append(lags, now.Sub(due))
		q := pool.get()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Search(context.Background(), q, k)
			switch {
			case err == nil:
				ok.Add(1)
				lat := time.Since(due)
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
			case errors.Is(err, client.ErrOverloaded):
				shed.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	res := openLoopResult{
		offered:     offered,
		sent:        len(lags),
		lagP99:      quantile(lags, 0.99),
		achievedQPS: float64(ok.Load()) / wall.Seconds(),
		p50:         quantile(lats, 0.50),
		p99:         quantile(lats, 0.99),
	}
	if total := ok.Load() + shed.Load(); total > 0 {
		res.shedRate = float64(shed.Load()) / float64(total)
	}
	return res
}

// quantile returns the q-quantile of ds (sorting it in place); 0 when ds
// is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[int(q*float64(len(ds)-1))]
}

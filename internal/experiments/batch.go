package experiments

import (
	"fmt"
	"runtime"
	"time"

	"brepartition/internal/dataset"
	"brepartition/internal/engine"
)

// Batch measures service throughput: one batch of queries answered by a
// sequential Search loop versus the concurrent engine at 1 and `workers`
// query workers. It is not a paper figure — it extends the evaluation
// toward the service setting (high-QPS batch retrieval) on the paper's
// workloads; speedups above 1 worker require GOMAXPROCS > 1.
func (e *Env) Batch(workers, batchSize int) []Table {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	k := e.cfg.Ks[0]

	var tables []Table
	for _, name := range []string{"audio", "uniform"} {
		ds := e.Dataset(name)
		ix := e.BP(name)
		queries := dataset.SampleQueries(ds, batchSize, e.cfg.Seed+13)

		seqStart := time.Now()
		var seqReads int64
		for _, q := range queries {
			res, err := ix.Search(q, k)
			if err != nil {
				panic(fmt.Sprintf("batch(%s): %v", name, err))
			}
			seqReads += int64(res.Stats.PageReads)
		}
		seqWall := time.Since(seqStart)

		tbl := Table{
			Title: fmt.Sprintf("Batch throughput — %s (batch=%d, k=%d)",
				name, batchSize, k),
			Header: []string{"mode", "wall", "QPS", "pageReads", "speedup"},
			Rows: [][]string{{
				"sequential loop",
				fmtDur(seqWall),
				fmt.Sprintf("%.0f", float64(batchSize)/seqWall.Seconds()),
				fmt.Sprintf("%d", seqReads),
				"1.00x",
			}},
		}

		for _, w := range workerSweep(workers) {
			eng := engine.New(ix, engine.Config{Workers: w, CacheSize: -1})
			start := time.Now()
			if _, err := eng.BatchSearch(queries, k); err != nil {
				panic(fmt.Sprintf("batch(%s, w=%d): %v", name, w, err))
			}
			wall := time.Since(start)
			st := eng.Stats()
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("engine w=%d", w),
				fmtDur(wall),
				fmt.Sprintf("%.0f", float64(batchSize)/wall.Seconds()),
				fmt.Sprintf("%d", st.PageReads),
				fmt.Sprintf("%.2fx", seqWall.Seconds()/wall.Seconds()),
			})
		}
		tables = append(tables, tbl)
	}
	return tables
}

// workerSweep returns the worker counts to measure: 1 and max, with an
// intermediate point when max is large enough for one to exist.
func workerSweep(max int) []int {
	switch {
	case max <= 1:
		return []int{1}
	case max <= 2:
		return []int{1, max}
	default:
		return []int{1, (1 + max) / 2, max}
	}
}

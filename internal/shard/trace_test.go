package shard

import (
	"math/rand"
	"testing"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/obs"
)

// TestTracedScanSpansWithinShardWall pins the stage budget of a 4-shard
// search: the shards run in parallel, so the engine's scan and refine
// spans — the critical shard's filter/refine split — must fit inside the
// longest shard's wall time, while the summed per-shard CPU time is kept
// separately and is at least as large.
func TestTracedScanSpansWithinShardWall(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	points := genPoints(rng, 2400, 16)
	sx, err := Build(bregman.Exponential{}, points, Options{Shards: 4, Core: core.Options{M: 2, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sx, engine.Config{Workers: 2, CacheSize: -1})
	defer eng.Close()
	for qi := 0; qi < 12; qi++ {
		tr := obs.NewTrace(uint64(qi + 1))
		res, err := eng.SubmitTraced(tr, points[rng.Intn(len(points))], 10).Wait()
		if err != nil {
			t.Fatal(err)
		}
		shards := tr.Shards()
		if len(shards) != 4 {
			t.Fatalf("query %d: %d shard spans, want 4", qi, len(shards))
		}
		var wall time.Duration
		for _, s := range shards {
			wall = max(wall, s.Run)
		}
		scan, refine := tr.Span(obs.StageScan), tr.Span(obs.StageRefine)
		if scan <= 0 || scan+refine > wall {
			t.Fatalf("query %d: scan %v + refine %v against shard wall %v", qi, scan, refine, wall)
		}
		st := res.Stats
		if st.FilterCPU+st.RefineCPU < st.FilterTime+st.RefineTime || st.FilterCPU < st.FilterTime {
			t.Fatalf("query %d: CPU filter %v refine %v below wall filter %v refine %v",
				qi, st.FilterCPU, st.RefineCPU, st.FilterTime, st.RefineTime)
		}
		tr.Release()
	}
}

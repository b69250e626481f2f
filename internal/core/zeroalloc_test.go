package core

import (
	"math/rand"
	"testing"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/kernel"
	"brepartition/internal/obs"
	"brepartition/internal/topk"
)

// TestSearchSteadyStateZeroAlloc is the allocation contract of the kernel
// refactor: once the pooled per-query context and the caller's result
// buffer are warm, an exact Search performs zero heap allocations — the
// whole filter-refine pipeline (query transform, Algorithm-4 bound scan,
// BB-forest traversal with geodesic bisection, disk-session accounting,
// block refinement, result sort) runs out of reused memory. The loop
// also threads a nil *obs.Trace through the recording calls the serving
// path makes per query: tracing-off must add zero allocations (and zero
// work beyond the nil checks) to the steady state. The exponential and
// GKL indexes refine through the two-pass refine screen (checked: fewer
// exact evaluations than candidates), so its passes are held to zero
// allocations too.
func TestSearchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocation counts are meaningless")
	}
	for _, div := range []bregman.Divergence{bregman.SquaredEuclidean{}, bregman.Exponential{}, bregman.GeneralizedKL{}} {
		ix, dst, q := warmSearchState(t, div)
		const k = 10
		var tr *obs.Trace // tracing off: the serving path threads nil
		allocs := testing.AllocsPerRun(200, func() {
			res, err := ix.SearchAppend(dst[:0], q, k)
			if err != nil {
				t.Fatal(err)
			}
			tr.AddSpan(obs.StageScan, res.Stats.FilterTime)
			tr.AddSpan(obs.StageRefine, res.Stats.RefineTime)
			tr.Add(obs.Counters{
				Nodes:         int64(res.Stats.NodesVisited),
				Candidates:    int64(res.Stats.Candidates),
				DistanceComps: int64(res.Stats.DistanceComps),
				ExactComps:    int64(res.Stats.ExactComps),
			})
			tr.MarkCached()
			tr.AddSpan(obs.StageTotal, time.Nanosecond)
			dst = res.Items
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state SearchAppend allocates %.1f times per op, want 0", div.Name(), allocs)
		}
		res, err := ix.SearchAppend(dst[:0], q, k)
		if err != nil {
			t.Fatal(err)
		}
		if screened := res.Stats.ExactComps < res.Stats.Candidates; screened != kernel.Screens(ix.Kernel()) {
			t.Fatalf("%s: %d exact evaluations for %d candidates", div.Name(), res.Stats.ExactComps, res.Stats.Candidates)
		}
	}
}

// TestSearchAppendMatchesSearch is the answer half of the steady-state
// contract, split out of the allocation count so it runs under the race
// detector too (sync.Pool dropping items changes allocations, not
// answers): the pooled zero-alloc path must return exactly what the
// allocating Search does.
func TestSearchAppendMatchesSearch(t *testing.T) {
	for _, div := range []bregman.Divergence{bregman.SquaredEuclidean{}, bregman.Exponential{}, bregman.GeneralizedKL{}} {
		ix, dst, q := warmSearchState(t, div)
		const k = 10
		want, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.SearchAppend(dst[:0], q, k)
		if err != nil {
			t.Fatal(err)
		}
		dst = res.Items
		if len(dst) != len(want.Items) {
			t.Fatalf("%s: SearchAppend returned %d items, Search %d", div.Name(), len(dst), len(want.Items))
		}
		for i := range dst {
			if dst[i] != want.Items[i] {
				t.Fatalf("%s: item %d: SearchAppend %v != Search %v", div.Name(), i, dst[i], want.Items[i])
			}
		}
	}
}

// warmSearchState builds a small index and warms the pooled context, the
// session stamps, and the caller's result buffer with a few queries.
func warmSearchState(t *testing.T, div bregman.Divergence) (*Index, []topk.Item, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n, d := 400, 12
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	ix, err := Build(div, points, Options{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := points[5]
	var dst []topk.Item
	for i := 0; i < 3; i++ {
		res, err := ix.SearchAppend(dst[:0], q, 10)
		if err != nil {
			t.Fatal(err)
		}
		dst = res.Items
	}
	return ix, dst, q
}

// TestSearchAppendReusesDst pins the append contract: items land at dst's
// length and the backing array is reused when capacity suffices.
func TestSearchAppendReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := make([][]float64, 100)
	for i := range points {
		p := make([]float64, 6)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	ix, err := Build(bregman.SquaredEuclidean{}, points, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ix.SearchAppend(nil, points[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Items) != 5 {
		t.Fatalf("got %d items, want 5", len(first.Items))
	}
	buf := first.Items
	second, err := ix.SearchAppend(buf[:0], points[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	if &second.Items[0] != &buf[:1][0] {
		t.Fatal("SearchAppend did not reuse the caller's backing array")
	}
	// Appending after existing items preserves the prefix.
	prefix := append([]topk.Item(nil), second.Items...)
	third, err := ix.SearchAppend(second.Items, points[2], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Items) != len(prefix)+4 {
		t.Fatalf("append length %d, want %d", len(third.Items), len(prefix)+4)
	}
	for i := range prefix {
		if third.Items[i] != prefix[i] {
			t.Fatal("SearchAppend clobbered the dst prefix")
		}
	}
}

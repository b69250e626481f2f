package shard

import (
	"math/rand"
	"slices"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/kernel"
	"brepartition/internal/topk"
)

// TestShardedDuplicatesMatchBruteForce pins result order under ties
// across the scatter-gather merge: with many exact duplicates spread over
// the shards, sharded Search and SearchFilter return the k smallest items
// by (distance, global id), exactly as brute force sorted by topk.Compare.
func TestShardedDuplicatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, d = 300, 7
	points := make([][]float64, n)
	for i := range points {
		if i >= 6 && i%2 == 0 {
			points[i] = append([]float64(nil), points[rng.Intn(6)]...)
			continue
		}
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	brute := func(kern kernel.Kernel, q []float64, k int, keep func(int) bool) []topk.Item {
		var all []topk.Item
		for id, p := range points {
			if keep == nil || keep(id) {
				all = append(all, topk.Item{ID: id, Score: kern.Distance(p, q)})
			}
		}
		slices.SortFunc(all, topk.Compare)
		return all[:min(k, len(all))]
	}
	keep := func(g int) bool { return g%5 != 3 }
	for _, div := range []bregman.Divergence{bregman.Exponential{}, bregman.ItakuraSaito{}} {
		kern := kernel.For(div)
		ix, err := Build(div, points, Options{Shards: 3, Core: core.Options{M: 2, Seed: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			q := append([]float64(nil), points[rng.Intn(6)]...)
			for _, k := range []int{1, 3, 30, 80} {
				got, err := ix.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := brute(kern, q, k, nil); !slices.Equal(got.Items, want) {
					t.Fatalf("%s k=%d: sharded Search\ngot  %v\nwant %v", div.Name(), k, got.Items, want)
				}
				got, err = ix.SearchFilter(q, k, keep)
				if err != nil {
					t.Fatal(err)
				}
				if want := brute(kern, q, k, keep); !slices.Equal(got.Items, want) {
					t.Fatalf("%s k=%d: sharded SearchFilter\ngot  %v\nwant %v", div.Name(), k, got.Items, want)
				}
			}
		}
	}
}

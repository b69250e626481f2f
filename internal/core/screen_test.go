package core

import (
	"math/rand"
	"slices"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

// bruteSorted is the independent oracle for tie-heavy data: every
// point's kernel distance, sorted by topk.Compare (score, then id), cut
// at k. keep == nil admits every point.
func bruteSorted(div bregman.Divergence, points [][]float64, q []float64, k int, keep func(int) bool) []topk.Item {
	kern := kernel.For(div)
	var all []topk.Item
	for id, p := range points {
		if keep == nil || keep(id) {
			all = append(all, topk.Item{ID: id, Score: kern.Distance(p, q)})
		}
	}
	slices.SortFunc(all, topk.Compare)
	return all[:min(k, len(all))]
}

func sameItems(t *testing.T, what string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d = %+v, want %+v\ngot  %v\nwant %v", what, i, got[i], want[i], got, want)
		}
	}
}

// dupPoints returns n rows where every third row repeats one of a few
// base rows, so distances tie at the k-th place for most queries.
func dupPoints(rng *rand.Rand, n, d int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		if i >= 8 && i%3 == 0 {
			points[i] = append([]float64(nil), points[rng.Intn(8)]...)
			continue
		}
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	return points
}

// TestDuplicatePointsMatchBruteForce pins result order under ties: with
// many exact duplicates, Search and SearchFilter return the k smallest
// items by (distance, id) — the order every search surface and the
// end-to-end oracle use — whatever order the refinement offers them in.
func TestDuplicatePointsMatchBruteForce(t *testing.T) {
	for _, div := range []bregman.Divergence{bregman.SquaredEuclidean{}, bregman.Exponential{}, bregman.GeneralizedKL{}} {
		rng := rand.New(rand.NewSource(5))
		const n, d = 360, 8
		points := dupPoints(rng, n, d)
		ix, err := Build(div, points, Options{M: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		keep := func(id int) bool { return id%4 != 1 }
		for trial := 0; trial < 12; trial++ {
			q := append([]float64(nil), points[rng.Intn(8)]...)
			if trial%2 == 1 {
				q[0] *= 1 + 1e-6
			}
			for _, k := range []int{1, 2, 5, 20, 50} {
				res, err := ix.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				sameItems(t, div.Name()+" Search", res.Items, bruteSorted(div, points, q, k, nil))
				res, err = ix.SearchFilter(q, k, keep)
				if err != nil {
					t.Fatal(err)
				}
				sameItems(t, div.Name()+" SearchFilter", res.Items, bruteSorted(div, points, q, k, keep))
			}
		}
	}
}

// TestScreenedSearchMatchesUnscreened pins the refine screen end to end:
// for every divergence, an index whose store carries screen scalars
// answers exactly like a twin whose scalars were removed (the exact-only
// refinement) — items and every work counter but ExactComps — for exact,
// filtered, parallel and approximate (p = 1) search, after inserts that
// leave tail points without scalars and deletes; and a direct refinement
// of every id, deleted and inserted ones included, agrees too.
func TestScreenedSearchMatchesUnscreened(t *testing.T) {
	for _, div := range bregman.All() {
		rng := rand.New(rand.NewSource(9))
		const n, d = 400, 10
		points := dupPoints(rng, n, d)
		ix, err := Build(div, points, Options{M: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(div, points, Options{M: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref.Forest.Store.SetScreen(ref.kern, nil)
		for i := 0; i < 30; i++ {
			p := append([]float64(nil), points[rng.Intn(n)]...)
			if i%2 == 0 {
				p[i%d] *= 1.01
			}
			for _, x := range []*Index{ix, ref} {
				if _, err := x.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		for id := 0; id < n; id += 7 {
			ix.Delete(id)
			ref.Delete(id)
		}
		keep := func(id int) bool { return id%3 != 2 }
		saved := 0
		for trial := 0; trial < 10; trial++ {
			q := append([]float64(nil), ix.Points[rng.Intn(len(ix.Points))]...)
			if trial%2 == 1 {
				q[1] *= 1 + 1e-7
			}
			for _, k := range []int{1, 4, 20} {
				type search func(x *Index) (Result, error)
				for _, s := range []struct {
					name string
					run  search
				}{
					{"Search", func(x *Index) (Result, error) { return x.Search(q, k) }},
					{"SearchFilter", func(x *Index) (Result, error) { return x.SearchFilter(q, k, keep) }},
					{"SearchParallel", func(x *Index) (Result, error) { return x.SearchParallel(q, k, 2) }},
					{"SearchApprox p=1", func(x *Index) (Result, error) { return x.SearchApprox(q, k, 1) }},
				} {
					got, err := s.run(ix)
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.run(ref)
					if err != nil {
						t.Fatal(err)
					}
					what := div.Name() + " " + s.name
					sameItems(t, what, got.Items, want.Items)
					g, w := got.Stats, want.Stats
					if g.PageReads != w.PageReads || g.Candidates != w.Candidates || g.DistanceComps != w.DistanceComps {
						t.Fatalf("%s: stats %+v, unscreened %+v", what, g, w)
					}
					if w.ExactComps != w.Candidates || g.ExactComps > g.Candidates {
						t.Fatalf("%s: ExactComps %d (unscreened %d) for %d candidates", what, g.ExactComps, w.ExactComps, g.Candidates)
					}
					saved += g.Candidates - g.ExactComps
				}
			}

			// Every id, deleted and tail ones included, in a scrambled
			// order through the refinement itself.
			all := rng.Perm(len(ix.Points))
			prep := make([]float64, ix.kern.QueryScratchLen(d))
			ix.kern.PrepQuery(prep, q)
			got, want := topk.New(15), topk.New(15)
			scan.RefineCtx(ix.kern, ix.Forest.Store.NewSession(), all, q, got, make([]float64, len(all)), prep)
			scan.RefineCtx(ref.kern, ref.Forest.Store.NewSession(), all, q, want, make([]float64, 3), prep)
			sameItems(t, div.Name()+" refine all ids", got.Items(), want.Items())
		}
		if (saved > 0) != (ix.Forest.Store.ScreenPoints(ix.kern) != nil) {
			t.Fatalf("%s: the screen saved %d exact evaluations", div.Name(), saved)
		}
	}
}

package scan

import (
	"math/rand"
	"slices"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/disk"
	"brepartition/internal/kernel"
	"brepartition/internal/topk"
)

// refineReference is the exact-only refinement RefineCtx ran before the
// screen: every candidate's exact distance is offered, block at a time
// over consecutive slot runs. It is the oracle the screened path must
// match bit for bit.
func refineReference(kern kernel.Kernel, sess *disk.Session, candidates []int, q []float64, sel *topk.Selector, dist []float64, prep []float64) {
	store := sess.Store()
	for i := 0; i < len(candidates); {
		id := candidates[i]
		slot := store.Slot(id)
		j := i + 1
		for j < len(candidates) && j-i < len(dist) && store.Slot(candidates[j]) == slot+(j-i) {
			j++
		}
		switch {
		case j-i >= 2:
			block := sess.SlotBlock(slot, slot+(j-i))
			kern.DistancesTo(q, block, dist[:j-i])
			for t := i; t < j; t++ {
				sel.Offer(candidates[t], dist[t-i])
			}
		case prep != nil:
			sel.Offer(id, kern.DistancePrep(sess.Point(id), q, prep))
		default:
			sel.Offer(id, kern.Distance(sess.Point(id), q))
		}
		i = j
	}
}

// screenedStore builds a store over points with a non-identity layout and
// the screen's scalars for kern on the first len(points) ids, then
// appends tail (points without scalars, as Insert leaves them).
func screenedStore(t *testing.T, kern kernel.Kernel, rng *rand.Rand, points, tail [][]float64) *disk.Store {
	t.Helper()
	d := len(points[0])
	store, err := disk.NewStore(points, rng.Perm(len(points)), disk.Config{PageSize: 8 * d * 8})
	if err != nil {
		t.Fatal(err)
	}
	if kernel.Screens(kern) {
		screen := make([]kernel.ScreenPoint, len(points))
		for i, p := range points {
			screen[i], _ = kernel.PointScreen(kern, p)
		}
		store.SetScreen(kern, screen)
	}
	for _, p := range tail {
		if err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestRefineScreenedMatchesReference is the screen's oracle test: for
// every divergence, screened RefineCtx returns exactly the reference
// refinement's items — ids and distance bits — and reads the same pages,
// over candidate lists in scrambled order that mix leaf-like slot runs,
// duplicated coordinates (ties at the k-th place), near-duplicates and
// tail points appended without scalars, for k from 1 past the candidate
// count, with distance buffers shorter and longer than the list.
func TestRefineScreenedMatchesReference(t *testing.T) {
	const n, d, ntail = 300, 11, 20
	for _, div := range bregman.All() {
		kern := kernel.For(div)
		rng := rand.New(rand.NewSource(21))
		gen := func() []float64 {
			p := make([]float64, d)
			for j := range p {
				p[j] = 0.1 + rng.Float64()
			}
			return p
		}
		points := make([][]float64, n)
		for i := range points {
			switch {
			case i >= 10 && i%3 == 0:
				// Exact duplicates of a few base points, so distances tie
				// at the k-th place in most refinements.
				points[i] = append([]float64(nil), points[rng.Intn(4)]...)
			case i >= 10 && i%10 == 5:
				p := append([]float64(nil), points[i-3]...)
				p[0] *= 1 + 1e-13 // near-duplicate
				points[i] = p
			default:
				points[i] = gen()
			}
		}
		tail := make([][]float64, ntail)
		for i := range tail {
			tail[i] = gen()
		}
		tail[3] = append([]float64(nil), points[17]...)
		store := screenedStore(t, kern, rng, points, tail)

		screened := 0
		for trial := 0; trial < 40; trial++ {
			// Queries sit on, next to, or away from indexed points.
			q := gen()
			switch trial % 3 {
			case 0:
				q = append([]float64(nil), points[rng.Intn(n)]...)
			case 1:
				q = append([]float64(nil), points[rng.Intn(4)]...)
				q[1] *= 1 + 1e-9
			}
			// Candidates: a random subset of all ids (tail included) in
			// a scrambled order, plus a run of consecutive slots.
			var cands []int
			for _, id := range rng.Perm(n + ntail) {
				if rng.Intn(3) > 0 {
					cands = append(cands, id)
				}
			}
			s0 := rng.Intn(n - 20)
			seen := make(map[int]bool, len(cands))
			for _, id := range cands {
				seen[id] = true
			}
			for s := s0; s < s0+20; s++ {
				if id := store.IDAtSlot(s); !seen[id] {
					cands = append(cands, id)
				}
			}
			prep := make([]float64, kern.QueryScratchLen(d))
			kern.PrepQuery(prep, q)
			if len(prep) == 0 {
				prep = nil
			}
			for _, k := range []int{1, 2, 3, 10, 30, 60, len(cands) + 5} {
				kr := min(k, len(cands))
				for _, dlen := range []int{1, 7, len(cands)} {
					want := topk.New(kr)
					sessW := store.NewSession()
					refineReference(kern, sessW, cands, q, want, make([]float64, dlen), prep)

					got := topk.New(kr)
					sessG := store.NewSession()
					exact := RefineCtxCount(kern, sessG, cands, q, got, make([]float64, dlen), prep)
					gi, wi := got.Items(), want.Items()
					if dlen == 1 {
						// The reference itself is the k smallest by
						// (distance, id), whatever the offer order.
						all := make([]topk.Item, len(cands))
						for i, id := range cands {
							all[i] = topk.Item{ID: id, Score: kern.Distance(store.RawPoint(id), q)}
						}
						slices.SortFunc(all, topk.Compare)
						if !slices.Equal(wi, all[:kr]) {
							t.Fatalf("%s trial %d: reference %v, sorted %v", div.Name(), trial, wi, all[:kr])
						}
					}
					if len(gi) != len(wi) {
						t.Fatalf("%s trial %d k=%d: %d items, want %d", div.Name(), trial, k, len(gi), len(wi))
					}
					for i := range wi {
						if gi[i] != wi[i] {
							t.Fatalf("%s trial %d k=%d dist=%d item %d: got %+v, want %+v",
								div.Name(), trial, k, dlen, i, gi[i], wi[i])
						}
					}
					if sessG.PageReads() != sessW.PageReads() {
						t.Fatalf("%s: screened refine read %d pages, reference %d", div.Name(), sessG.PageReads(), sessW.PageReads())
					}
					if exact > len(cands) || exact < kr {
						t.Fatalf("%s: %d exact evaluations for %d candidates, k=%d", div.Name(), exact, len(cands), kr)
					}
					if exact < len(cands) {
						screened++
					}
				}
			}
		}
		if kernel.Screens(kern) != (screened > 0) {
			t.Fatalf("%s: screen saved work on %d refinements (screened kernel: %v)", div.Name(), screened, kernel.Screens(kern))
		}
	}
}

// TestRefineScreenNeedsEmptySelector pins the fallback: a selector that
// already holds items is refined exactly (pass 1 could not borrow it).
func TestRefineScreenNeedsEmptySelector(t *testing.T) {
	div := bregman.Exponential{}
	kern := kernel.For(div)
	rng := rand.New(rand.NewSource(4))
	points := make([][]float64, 64)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	store := screenedStore(t, kern, rng, points, nil)
	cands := rng.Perm(len(points))
	q := points[9]
	prep := make([]float64, kern.QueryScratchLen(3))
	kern.PrepQuery(prep, q)

	sel := topk.New(4)
	sel.Offer(1000, 0.5)
	if exact := RefineCtxCount(kern, store.NewSession(), cands, q, sel, make([]float64, 4), prep); exact != len(cands) {
		t.Fatalf("pre-filled selector: %d exact evaluations, want all %d", exact, len(cands))
	}
	want := topk.New(4)
	want.Offer(1000, 0.5)
	refineReference(kern, store.NewSession(), cands, q, want, make([]float64, 4), prep)
	gi, wi := sel.Items(), want.Items()
	for i := range wi {
		if gi[i] != wi[i] {
			t.Fatalf("item %d: got %+v, want %+v", i, gi[i], wi[i])
		}
	}
}

package bbforest

import (
	"math/rand"
	"slices"
	"testing"

	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/dataset"
	"brepartition/internal/disk"
	"brepartition/internal/partition"
	"brepartition/internal/transform"
)

func testData(tb testing.TB, n int) ([][]float64, bregman.Divergence) {
	tb.Helper()
	spec, err := dataset.PaperSpec("audio", 0.02)
	if err != nil {
		tb.Fatal(err)
	}
	spec.N = n
	spec.Dim = 24
	spec.Blocks = 4
	ds, err := dataset.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	div, err := bregman.ByName(ds.Divergence)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Points, div
}

func buildForest(tb testing.TB, points [][]float64, div bregman.Divergence, m int) *Forest {
	tb.Helper()
	parts := partition.Equal(len(points[0]), m)
	f, err := Build(div, points, parts, Config{
		Tree: bbtree.Config{LeafSize: 16, Seed: 3},
		Disk: disk.Config{PageSize: 2 << 10},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func TestBuildValidatesPartition(t *testing.T) {
	points, div := testData(t, 100)
	_, err := Build(div, points, [][]int{{0, 1}}, Config{
		Disk: disk.Config{PageSize: 1 << 10},
	})
	if err == nil {
		t.Fatal("incomplete partition accepted")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	_, div := testData(t, 100)
	if _, err := Build(div, nil, nil, Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestForestShape(t *testing.T) {
	points, div := testData(t, 400)
	f := buildForest(t, points, div, 4)
	if f.M() != 4 {
		t.Fatalf("M = %d", f.M())
	}
	if f.Store.Len() != 400 {
		t.Fatalf("store len = %d", f.Store.Len())
	}
	for i, tree := range f.Trees {
		if tree.Len() != 400 {
			t.Fatalf("tree %d has %d points", i, tree.Len())
		}
		if tree.SubDim() != 6 {
			t.Fatalf("tree %d SubDim = %d", i, tree.SubDim())
		}
	}
}

func TestLayoutFollowsReferenceTree(t *testing.T) {
	points, div := testData(t, 300)
	f := buildForest(t, points, div, 3)
	order := f.Trees[0].LeafOrder()
	// Successive ids in leaf order should map to non-decreasing pages.
	prevPage := -1
	for _, id := range order {
		page := f.Store.PageOf(id)
		if page < prevPage {
			t.Fatalf("leaf order not contiguous on disk: page %d after %d", page, prevPage)
		}
		prevPage = page
	}
}

func TestCandidateUnionCompleteness(t *testing.T) {
	// Every point within the per-subspace radius in ANY subspace must be
	// in the union (Theorem 3 at cluster granularity).
	points, div := testData(t, 500)
	f := buildForest(t, points, div, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		q := points[rng.Intn(len(points))]
		radii := make([]float64, f.M())
		for i := range radii {
			radii[i] = 0.5 + float64(trial)
		}
		sess := f.Store.NewSession()
		cands, _ := f.CandidateUnion(q, radii, sess)
		inUnion := map[int]bool{}
		for _, id := range cands {
			inUnion[id] = true
		}
		for id, p := range points {
			for si, dims := range f.Parts {
				if transform.SubspaceDistance(div, p, q, dims) <= radii[si] {
					if !inUnion[id] {
						t.Fatalf("point %d within subspace %d radius but missing", id, si)
					}
					break
				}
			}
		}
		if sess.PageReads() == 0 && len(cands) > 0 {
			t.Fatal("candidates produced without any page reads")
		}
	}
}

func TestCandidateUnionDeduplicates(t *testing.T) {
	points, div := testData(t, 200)
	f := buildForest(t, points, div, 4)
	radii := []float64{1e18, 1e18, 1e18, 1e18}
	sess := f.Store.NewSession()
	cands, _ := f.CandidateUnion(points[0], radii, sess)
	if len(cands) != 200 {
		t.Fatalf("infinite radii should yield all %d points once, got %d", 200, len(cands))
	}
	seen := map[int]bool{}
	for _, id := range cands {
		if seen[id] {
			t.Fatalf("duplicate candidate %d", id)
		}
		seen[id] = true
	}
	if sess.PageReads() != f.Store.NumPages() {
		t.Fatalf("read %d pages, want all %d", sess.PageReads(), f.Store.NumPages())
	}
}

func TestCandidateUnionRadiiMismatchPanics(t *testing.T) {
	points, div := testData(t, 100)
	f := buildForest(t, points, div, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.CandidateUnion(points[0], []float64{1}, f.Store.NewSession())
}

func TestCandidatesPerSubspace(t *testing.T) {
	points, div := testData(t, 300)
	f := buildForest(t, points, div, 3)
	radii := []float64{2, 2, 2}
	per := f.CandidatesPerSubspace(points[0], radii)
	if len(per) != 3 {
		t.Fatalf("got %d subspace sets", len(per))
	}
	// Union of per-subspace sets must equal CandidateUnion's ids.
	union := map[int]bool{}
	for _, ids := range per {
		for _, id := range ids {
			union[id] = true
		}
	}
	sess := f.Store.NewSession()
	cands, _ := f.CandidateUnion(points[0], radii, sess)
	if len(cands) != len(union) {
		t.Fatalf("union sizes differ: %d vs %d", len(cands), len(union))
	}
}

func TestReferenceSubspaceSelection(t *testing.T) {
	points, div := testData(t, 200)
	parts := partition.Equal(24, 4)
	f, err := Build(div, points, parts, Config{
		Tree:              bbtree.Config{LeafSize: 16, Seed: 3},
		Disk:              disk.Config{PageSize: 2 << 10},
		ReferenceSubspace: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	order := f.Trees[2].LeafOrder()
	prevPage := -1
	for _, id := range order {
		page := f.Store.PageOf(id)
		if page < prevPage {
			t.Fatal("layout does not follow the chosen reference subspace")
		}
		prevPage = page
	}
}

// TestPCCPLayoutReducesIO verifies the §6 claim on the dup-structured
// stand-in: with PCCP-aligned subspaces, the distinct pages touched by a
// multi-subspace candidate union should not exceed the sum of per-subspace
// page sets (reuse happens).
func TestPCCPLayoutReducesIO(t *testing.T) {
	points, div := testData(t, 600)
	parts := partition.PCCP(points, 4, 0, 1)
	f, err := Build(div, points, parts, Config{
		Tree: bbtree.Config{LeafSize: 16, Seed: 3},
		Disk: disk.Config{PageSize: 2 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := points[5]
	radii := make([]float64, f.M())
	for i := range radii {
		radii[i] = 1.0
	}
	per := f.CandidatesPerSubspace(q, radii)
	var sumPages int
	for _, ids := range per {
		pages := map[int]bool{}
		for _, id := range ids {
			pages[f.Store.PageOf(id)] = true
		}
		sumPages += len(pages)
	}
	sess := f.Store.NewSession()
	f.CandidateUnion(q, radii, sess)
	if sess.PageReads() > sumPages {
		t.Fatalf("union pages %d exceed per-subspace sum %d", sess.PageReads(), sumPages)
	}
}

// referenceUnion is the candidate union as it was computed before the
// range filter decided with Prunes: every node gets the full
// dual-geodesic LowerBound and is pruned when it exceeds the radius.
// It is the oracle TestCandidateUnionMatchesFullBound holds the
// early-exit traversal to.
func referenceUnion(f *Forest, q []float64, radii []float64, keep func(int) bool) ([]int, bbtree.Stats) {
	var st bbtree.Stats
	var cands []int
	seen := make([]bool, f.Store.Len())
	var proj bbtree.Projector
	for i, tree := range f.Trees {
		if len(tree.Nodes) == 0 {
			continue
		}
		proj.Bind(tree, q)
		work := []int{0}
		for len(work) > 0 {
			node := &tree.Nodes[work[len(work)-1]]
			work = work[:len(work)-1]
			st.NodesVisited++
			st.BoundComps++
			if proj.LowerBound(node) > radii[i] {
				continue
			}
			if node.IsLeaf() {
				st.LeavesVisited++
				for _, id := range node.IDs {
					if seen[id] {
						continue
					}
					seen[id] = true
					if keep == nil || keep(id) {
						cands = append(cands, id)
					}
				}
				continue
			}
			work = append(work, node.Right, node.Left)
		}
		st.BisectSteps += proj.Steps()
	}
	return cands, st
}

// TestCandidateUnionMatchesFullBound pins the early-exit filter to the
// full-bound traversal on the seeded corpus: the same candidates in the
// same order, the same nodes and leaves visited, and no more bisection
// steps.
func TestCandidateUnionMatchesFullBound(t *testing.T) {
	points, div := testData(t, 500)
	f := buildForest(t, points, div, 4)
	rng := rand.New(rand.NewSource(6))
	var sc SearchScratch
	leaves := 0
	for _, tree := range f.Trees {
		leaves += tree.NumLeaves()
	}
	pruned := false
	for trial := 0; trial < 12; trial++ {
		q := points[rng.Intn(len(points))]
		for _, scale := range []float64{0, 0.05, 0.3, 1, 4, 1e18} {
			radii := make([]float64, f.M())
			for i := range radii {
				radii[i] = scale * (1 + rng.Float64())
			}
			for _, keep := range []func(int) bool{nil, func(id int) bool { return id%3 != 0 }} {
				want, wst := referenceUnion(f, q, radii, keep)
				got, gst := f.CandidateUnionFilterCtx(q, radii, f.Store.NewSession(), &sc, keep)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d scale %g: candidates differ from the full-bound traversal\n got %v\nwant %v",
						trial, scale, got, want)
				}
				if gst.NodesVisited != wst.NodesVisited || gst.LeavesVisited != wst.LeavesVisited ||
					gst.BoundComps != wst.BoundComps {
					t.Fatalf("trial %d scale %g: stats %+v, full-bound %+v", trial, scale, gst, wst)
				}
				if gst.BisectSteps > wst.BisectSteps {
					t.Fatalf("trial %d scale %g: %d bisection steps, full bound took %d",
						trial, scale, gst.BisectSteps, wst.BisectSteps)
				}
				pruned = pruned || (wst.LeavesVisited > 0 && wst.LeavesVisited < leaves)
			}
		}
	}
	if !pruned {
		t.Fatal("no radius kept some leaves and pruned others; the comparison is vacuous")
	}
}

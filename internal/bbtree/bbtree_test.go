package bbtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/scan"
)

func domainVec(div bregman.Divergence, d int, rng *rand.Rand) []float64 {
	lo, _ := div.Domain()
	v := make([]float64, d)
	for i := range v {
		if math.IsInf(lo, -1) {
			v[i] = 4 * (rng.Float64() - 0.5)
		} else {
			v[i] = lo + 0.1 + 4*rng.Float64()
		}
	}
	return v
}

func clusteredPoints(div bregman.Divergence, n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	lo, _ := div.Domain()
	positive := !math.IsInf(lo, -1)
	centers := make([][]float64, 6)
	for c := range centers {
		centers[c] = domainVec(div, d, rng)
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + 0.2*rng.NormFloat64()
			if positive && p[j] <= 0.01 {
				p[j] = 0.01 + rng.Float64()*0.05
			}
		}
		pts[i] = p
	}
	return pts
}

var treeDivs = []bregman.Divergence{
	bregman.SquaredEuclidean{},
	bregman.ItakuraSaito{},
	bregman.Exponential{},
	bregman.GeneralizedKL{},
}

func TestBuildInvariants(t *testing.T) {
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 400, 6, 1)
		tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 2})
		if tree.Len() != 400 {
			t.Fatalf("%s: Len = %d", div.Name(), tree.Len())
		}
		// Every node ball must contain all points of its subtree.
		var walk func(idx int) []int
		walk = func(idx int) []int {
			node := &tree.Nodes[idx]
			var ids []int
			if node.IsLeaf() {
				ids = node.IDs
			} else {
				ids = append(ids, walk(node.Left)...)
				ids = append(ids, walk(node.Right)...)
			}
			for _, id := range ids {
				d := bregman.Distance(div, tree.SubPoint(id), node.Center)
				if d > node.Radius+1e-9*(1+node.Radius) {
					t.Fatalf("%s: point %d outside ball (D=%g > R=%g)",
						div.Name(), id, d, node.Radius)
				}
			}
			return ids
		}
		all := walk(0)
		if len(all) != 400 {
			t.Fatalf("%s: tree covers %d points", div.Name(), len(all))
		}
		seen := map[int]bool{}
		for _, id := range all {
			if seen[id] {
				t.Fatalf("%s: point %d in two leaves", div.Name(), id)
			}
			seen[id] = true
		}
	}
}

func TestLeafSizeRespected(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 500, 4, 3)
	tree := Build(div, pts, nil, Config{LeafSize: 10, Seed: 1})
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.IsLeaf() && len(n.IDs) > 10 {
			// Depth-capped or degenerate leaves may exceed; they must be rare.
			if len(n.IDs) > 100 {
				t.Fatalf("leaf with %d points", len(n.IDs))
			}
		}
	}
}

func TestKNNExactAllDivergences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 600, 8, 5)
		tree := Build(div, pts, nil, Config{LeafSize: 20, Seed: 6})
		for trial := 0; trial < 12; trial++ {
			q := pts[rng.Intn(len(pts))]
			k := 1 + rng.Intn(15)
			got, _ := tree.KNN(q, k)
			want := scan.KNN(div, pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d results, want %d", div.Name(), len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > 1e-9*(1+want[i].Score) {
					t.Fatalf("%s k=%d pos=%d: got %g want %g",
						div.Name(), k, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

func TestKNNPrunesOnClusteredData(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 2000, 6, 7)
	tree := Build(div, pts, nil, Config{LeafSize: 32, Seed: 8})
	q := pts[0]
	_, st := tree.KNN(q, 5)
	if st.DistanceComps >= 2000 {
		t.Fatalf("no pruning: %d distance computations", st.DistanceComps)
	}
}

func TestRangeQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 500, 6, 10)
		tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 11})
		for trial := 0; trial < 8; trial++ {
			q := pts[rng.Intn(len(pts))]
			// Radius spanning from selective to broad.
			r := float64(trial) * 0.5
			got, _ := tree.RangeQuery(q, r)
			want := scan.Range(div, pts, q, r)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("%s r=%g: got %d ids, want %d", div.Name(), r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s r=%g: id mismatch at %d", div.Name(), r, i)
				}
			}
		}
	}
}

func TestRangeLeavesCompleteness(t *testing.T) {
	// Every point within range must live in a visited leaf (candidate
	// completeness at cluster granularity, the filter's soundness).
	div := bregman.Exponential{}
	pts := clusteredPoints(div, 800, 5, 12)
	tree := Build(div, pts, nil, Config{LeafSize: 25, Seed: 13})
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 6; trial++ {
		q := pts[rng.Intn(len(pts))]
		r := 1.0 + float64(trial)
		visited := map[int]bool{}
		tree.RangeLeaves(q, r, func(node *Node) {
			for _, id := range node.IDs {
				visited[id] = true
			}
		})
		for _, id := range scan.Range(div, pts, q, r) {
			if !visited[id] {
				t.Fatalf("in-range point %d not in any visited leaf", id)
			}
		}
	}
}

// pruneDivs covers every monomorphized kernel in treeDivs plus LpNorm,
// which has no kernel of its own and runs on the generic fallback.
var pruneDivs = append(append([]bregman.Divergence(nil), treeDivs...), bregman.LpNorm{P: 3})

// subtreeIDs returns the ids of every point under node idx.
func subtreeIDs(tree *Tree, idx int) []int {
	node := &tree.Nodes[idx]
	if node.IsLeaf() {
		return node.IDs
	}
	return append(subtreeIDs(tree, node.Left), subtreeIDs(tree, node.Right)...)
}

// minDistance is the brute-force min{D_f(x, q) : x under node idx}.
func minDistance(tree *Tree, idx int, q []float64) float64 {
	m := math.Inf(1)
	for _, id := range subtreeIDs(tree, idx) {
		m = math.Min(m, bregman.Distance(tree.Div, tree.SubPoint(id), q))
	}
	return m
}

func TestLowerBoundSoundness(t *testing.T) {
	// The dual-geodesic lower bound must never exceed the true minimum
	// distance from the query to any point under a node. Prunes — its
	// early-exit decision form — must answer LowerBound(node) > r for
	// radii on both sides of the bound (none is close enough below it for
	// rounding to separate a witness from a bound), may skip a node only
	// when no point under it lies within r, and must take fewer steps.
	for _, div := range pruneDivs {
		t.Run(div.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			pts := clusteredPoints(div, 300, 5, 16)
			tree := Build(div, pts, nil, Config{LeafSize: 12, Seed: 17})
			iters := tree.cfg.BisectIters
			pruned := 0
			for trial := 0; trial < 10; trial++ {
				q := domainVec(div, 5, rng)
				var full, early Projector
				full.Bind(tree, q)
				early.Bind(tree, q)
				radii := 0
				for i := range tree.Nodes {
					node := &tree.Nodes[i]
					lb := full.LowerBound(node)
					minD := minDistance(tree, i, full.q)
					if lb > minD+1e-9*(1+minD) {
						t.Fatalf("node %d: lb %g > true distance %g", i, lb, minD)
					}
					for _, r := range []float64{-1, 0, lb / 2, lb, math.Nextafter(lb, math.Inf(1)), 2 * lb, math.NaN()} {
						radii++
						before := early.Steps()
						got := early.Prunes(node, r)
						if n := early.Steps() - before; n > iters {
							t.Fatalf("node %d r=%g: %d steps exceed the cap %d", i, r, n, iters)
						}
						if want := lb > r; got != want {
							t.Fatalf("node %d r=%g: Prunes=%v, LowerBound %g > r is %v", i, r, got, lb, want)
						}
						if got {
							pruned++
							if minD <= r {
								t.Fatalf("node %d r=%g: pruned but a point lies at %g", i, r, minD)
							}
						}
					}
				}
				// Per decision, the early exit must beat the full walk.
				if early.Steps()*len(tree.Nodes) >= full.Steps()*radii {
					t.Fatalf("%d steps for %d decisions; LowerBound took %d for %d nodes",
						early.Steps(), radii, full.Steps(), len(tree.Nodes))
				}
			}
			if pruned == 0 {
				t.Fatal("no node was ever pruned")
			}
		})
	}
}

func TestRangeLeavesCountsBisectSteps(t *testing.T) {
	div := bregman.ItakuraSaito{}
	pts := clusteredPoints(div, 400, 6, 33)
	tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 34})
	q := pts[3]
	st := tree.RangeLeaves(q, 1, func(*Node) {})
	if st.BisectSteps <= 0 || st.BisectSteps > st.BoundComps*tree.cfg.BisectIters {
		t.Fatalf("BisectSteps %d for %d bound decisions", st.BisectSteps, st.BoundComps)
	}
	_, kst := tree.KNN(q, 5)
	if kst.BisectSteps <= 0 || kst.BisectSteps > kst.BoundComps*tree.cfg.BisectIters {
		t.Fatalf("KNN BisectSteps %d for %d bounds", kst.BisectSteps, kst.BoundComps)
	}
}

// FuzzPrunesSound checks Prunes against LowerBound and brute force on
// the TestLowerBoundSoundness corpus, for fuzzed queries and radii: a
// pruned node must have LowerBound > r and hold no point within r,
// allowing LowerBound its documented rounding slack.
func FuzzPrunesSound(f *testing.F) {
	trees := make([]*Tree, len(pruneDivs))
	rng := rand.New(rand.NewSource(15))
	for di, div := range pruneDivs {
		pts := clusteredPoints(div, 300, 5, 16)
		trees[di] = Build(div, pts, nil, Config{LeafSize: 12, Seed: 17})
		for _, q := range [][]float64{domainVec(div, 5, rng), pts[di]} {
			for _, r := range []float64{-1, 0, 0.5, 2, 8} {
				f.Add(uint8(di), q[0], q[1], q[2], q[3], q[4], r)
			}
		}
	}
	f.Add(uint8(1), 1.0, 2.0, 3.0, 4.0, 5.0, math.NaN())
	f.Fuzz(func(t *testing.T, di uint8, q0, q1, q2, q3, q4, r float64) {
		tree := trees[int(di)%len(trees)]
		lo, _ := tree.Div.Domain()
		q := []float64{q0, q1, q2, q3, q4}
		for _, x := range q {
			// Stay where the kernels are finite: |x| ≤ 20, and inside
			// the domain with a margin.
			if !(math.Abs(x) <= 20) || (!math.IsInf(lo, -1) && x < lo+1e-3) {
				return
			}
		}
		var proj Projector
		proj.Bind(tree, q)
		for i := range tree.Nodes {
			node := &tree.Nodes[i]
			if !proj.Prunes(node, r) {
				continue
			}
			if lb := proj.LowerBound(node); !(lb > r) {
				t.Fatalf("%s node %d r=%g: pruned but LowerBound %g ≤ r", tree.Div.Name(), i, r, lb)
			}
			if minD := minDistance(tree, i, q); minD+1e-9*(1+minD) <= r {
				t.Fatalf("%s node %d r=%g: pruned but a point lies at %g", tree.Div.Name(), i, r, minD)
			}
		}
	})
}

func TestSubspaceTree(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 300, 10, 18)
	dims := []int{1, 4, 7}
	tree := Build(div, pts, dims, Config{LeafSize: 16, Seed: 19})
	if tree.SubDim() != 3 {
		t.Fatalf("SubDim = %d", tree.SubDim())
	}
	rng := rand.New(rand.NewSource(20))
	q := pts[rng.Intn(len(pts))]
	got, _ := tree.KNN(q, 5)

	// Brute force in the subspace.
	qSub := Gather(q, dims)
	sub := make([][]float64, len(pts))
	for i, p := range pts {
		sub[i] = Gather(p, dims)
	}
	want := scan.KNN(div, sub, qSub, 5)
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("subspace kNN mismatch at %d: %g vs %g", i, got[i].Score, want[i].Score)
		}
	}
}

func TestLeafOrderIsPermutation(t *testing.T) {
	div := bregman.ItakuraSaito{}
	pts := clusteredPoints(div, 257, 4, 21)
	tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 22})
	order := tree.LeafOrder()
	if len(order) != 257 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 257)
	for _, id := range order {
		if id < 0 || id >= 257 || seen[id] {
			t.Fatalf("bad leaf order at id %d", id)
		}
		seen[id] = true
	}
}

func TestDegenerateAllIdentical(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{1, 2, 3}
	}
	tree := Build(div, pts, nil, Config{LeafSize: 8, Seed: 23})
	got, _ := tree.KNN([]float64{1, 2, 3}, 5)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for _, it := range got {
		if it.Score != 0 {
			t.Fatalf("distance %g on identical data", it.Score)
		}
	}
}

func TestEmptyAndTinyTrees(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	empty := Build(div, nil, nil, Config{})
	if res, _ := empty.KNN([]float64{1}, 3); res != nil {
		t.Fatal("empty tree should return nil")
	}
	if empty.Root() != -1 {
		t.Fatal("empty tree root should be -1")
	}
	single := Build(div, [][]float64{{5, 5}}, nil, Config{})
	res, _ := single.KNN([]float64{5, 5}, 3)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("single-point tree: %v", res)
	}
}

func TestKNNZeroK(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	tree := Build(div, [][]float64{{1}, {2}}, nil, Config{})
	if res, _ := tree.KNN([]float64{1}, 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestKNNBudgetApproximation(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 1500, 6, 24)
	tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 25})
	q := pts[7]
	exact, exSt := tree.KNN(q, 10)
	budget, budSt := tree.KNNBudget(q, 10, 2, nil)
	if budSt.LeavesVisited > exSt.LeavesVisited && budSt.LeavesVisited > 3 {
		t.Fatalf("budgeted search visited %d leaves (exact %d)",
			budSt.LeavesVisited, exSt.LeavesVisited)
	}
	if len(budget) != 10 {
		t.Fatalf("budgeted search returned %d items", len(budget))
	}
	// Budgeted results can't beat exact ones.
	for i := range budget {
		if budget[i].Score < exact[i].Score-1e-12 {
			t.Fatal("budgeted result better than exact — impossible")
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	var a, b Stats
	a = Stats{1, 2, 3, 4, 5}
	b.Add(a)
	b.Add(a)
	if b != (Stats{2, 4, 6, 8, 10}) {
		t.Fatalf("Add wrong: %+v", b)
	}
}

func TestGather(t *testing.T) {
	p := []float64{10, 20, 30, 40}
	if got := Gather(p, []int{3, 0}); got[0] != 40 || got[1] != 10 {
		t.Fatalf("Gather = %v", got)
	}
	cp := Gather(p, nil)
	cp[0] = -1
	if p[0] != 10 {
		t.Fatal("nil-dims Gather must copy")
	}
}

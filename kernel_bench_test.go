// Benchmarks for the monomorphized divergence kernels and the zero-alloc
// search path introduced by the flat-SoA refactor. Run with -benchmem: the
// headline assertions are 0 allocs/op on BenchmarkSearchSteadyState* and
// the gap between BenchmarkKernelDistances* (concrete kernels over a flat
// block) and BenchmarkKernelDistancesInterface (the old per-coordinate
// bregman.Divergence dispatch over the same data).
package brepartition_test

import (
	"math/rand"
	"testing"

	"brepartition"
	"brepartition/internal/bregman"
	"brepartition/internal/disk"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

const (
	kernBenchN   = 2048
	kernBenchDim = 128
)

// kernBenchData builds a flat block plus a query strictly inside every
// registered divergence's domain.
func kernBenchData() (kernel.FlatBlock, []float64) {
	rng := rand.New(rand.NewSource(42))
	data := make([]float64, kernBenchN*kernBenchDim)
	for i := range data {
		data[i] = 0.1 + rng.Float64()
	}
	q := make([]float64, kernBenchDim)
	for i := range q {
		q[i] = 0.1 + rng.Float64()
	}
	return kernel.FlatBlock{Data: data, Dim: kernBenchDim, N: kernBenchN}, q
}

func benchmarkKernelDistances(b *testing.B, div brepartition.Divergence) {
	block, q := kernBenchData()
	kern := kernel.For(div)
	out := make([]float64, block.N)
	b.SetBytes(int64(block.N * block.Dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.DistancesTo(q, block, out)
	}
}

func BenchmarkKernelDistancesL2(b *testing.B) {
	benchmarkKernelDistances(b, brepartition.SquaredEuclidean())
}

func BenchmarkKernelDistancesIS(b *testing.B) {
	benchmarkKernelDistances(b, brepartition.ItakuraSaito())
}

func BenchmarkKernelDistancesExp(b *testing.B) {
	benchmarkKernelDistances(b, brepartition.Exponential())
}

func BenchmarkKernelDistancesGKL(b *testing.B) {
	benchmarkKernelDistances(b, brepartition.GeneralizedKL())
}

// benchmarkRefineScreened refines the whole BenchmarkKernelDistances*
// block as one candidate list (k = 20) through scan.RefineCtx over a
// store carrying the refine screen's scalars: one dot product per point,
// the exact kernel for the survivors only. The ratio against the same
// divergence's BenchmarkKernelDistances* is the screen's win on a full
// scan (ROADMAP item 3 targets ≥3x).
func benchmarkRefineScreened(b *testing.B, div brepartition.Divergence) {
	block, q := kernBenchData()
	kern := kernel.For(div)
	rows := make([][]float64, block.N)
	screen := make([]kernel.ScreenPoint, block.N)
	cands := make([]int, block.N)
	for i := range rows {
		rows[i] = block.Row(i)
		screen[i], _ = kernel.PointScreen(kern, rows[i])
		cands[i] = i
	}
	store, err := disk.NewStore(rows, nil, disk.Config{PageSize: 32 << 10})
	if err != nil {
		b.Fatal(err)
	}
	store.SetScreen(kern, screen)
	sess := store.NewSession()
	prep := make([]float64, kern.QueryScratchLen(len(q)))
	kern.PrepQuery(prep, q)
	sel := topk.New(20)
	dist := make([]float64, len(cands)) // as core sizes it: one slot per candidate
	exact := 0
	b.SetBytes(int64(block.N * block.Dim * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Reset(store)
		sel.ResetK(20)
		exact += scan.RefineCtxCount(kern, sess, cands, q, sel, dist, prep)
	}
	b.ReportMetric(float64(exact)/float64(b.N), "exact/op")
}

func BenchmarkRefineScreenedExp(b *testing.B) {
	benchmarkRefineScreened(b, brepartition.Exponential())
}

func BenchmarkRefineScreenedGKL(b *testing.B) {
	benchmarkRefineScreened(b, brepartition.GeneralizedKL())
}

func BenchmarkRefineScreenedIS(b *testing.B) {
	benchmarkRefineScreened(b, brepartition.ItakuraSaito())
}

// BenchmarkKernelDistancesInterface is the pre-refactor reference: the
// same block, row by row, through bregman.Distance's per-coordinate
// interface dispatch. The ratio against BenchmarkKernelDistancesL2 is the
// devirtualization win.
func BenchmarkKernelDistancesInterface(b *testing.B) {
	block, q := kernBenchData()
	div := bregman.SquaredEuclidean{}
	out := make([]float64, block.N)
	b.SetBytes(int64(block.N * block.Dim * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < block.N; r++ {
			out[r] = bregman.Distance(div, block.Row(r), q)
		}
	}
}

// BenchmarkSearchSteadyStateM8 is the zero-allocation query path: Search
// with a reused result buffer against the warm pooled context. The allocs
// column must read 0.
func BenchmarkSearchSteadyStateM8(b *testing.B) {
	idx, queries := benchIndex(b, 8, 16)
	var dst []topk.Item
	for _, q := range queries { // warm pool, session stamps, result buffer
		res, err := idx.SearchAppend(dst[:0], q, 20)
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := idx.SearchAppend(dst[:0], queries[i%len(queries)], 20)
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
}

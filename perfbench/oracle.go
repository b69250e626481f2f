package main

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"brepartition/internal/bregman"
	"brepartition/internal/kernel"
	"brepartition/internal/topk"
	"brepartition/internal/wire"
)

// bruteKNN is the oracle: every admitted point's kernel distance taken
// point-first, D(p, q), then the k smallest by (distance, id) — the
// order every search surface promises. ids[i] is the id of pts[i]. buf
// is scratch space (may be nil) so that oracle work leaves no garbage to
// inflate the process's peak memory.
func bruteKNN(kern kernel.Kernel, ids []int, pts [][]float64, q []float64, k int, keep func(id int) bool, buf []topk.Item) []topk.Item {
	all := buf[:0]
	for i, p := range pts {
		if keep != nil && !keep(ids[i]) {
			continue
		}
		all = append(all, topk.Item{ID: ids[i], Score: kern.Distance(p, q)})
	}
	slices.SortFunc(all, topk.Compare)
	return slices.Clone(all[:min(k, len(all))])
}

// oracleAll answers every query by brute force over pts (point i has id
// i), spread over GOMAXPROCS goroutines.
func oracleAll(div bregman.Divergence, pts [][]float64, queries [][]float64, k int) [][]topk.Item {
	kern := kernel.For(div)
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	out := make([][]topk.Item, len(queries))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]topk.Item, 0, len(pts))
			for i := w; i < len(queries); i += workers {
				out[i] = bruteKNN(kern, ids, pts, queries[i], k, nil, buf)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sameItems reports whether a served answer is bit-identical to the
// oracle's: same ids in the same order, same distance bits.
func sameItems(got []wire.Item, want []topk.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// sameTopk is sameItems for in-process answers.
func sameTopk(got, want []topk.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

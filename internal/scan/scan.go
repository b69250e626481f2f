// Package scan provides brute-force exact kNN under Bregman divergences —
// the ground truth every index is validated against — and the shared
// candidate-refinement step of the filter-refine frameworks.
//
// All distance evaluation goes through the monomorphized kernels of
// internal/kernel, picked once per call (or passed in by callers that
// already hold one), so the inner loops never dispatch through the
// bregman.Divergence interface; candidate runs that are physically
// adjacent in the disk store's arena are evaluated block-at-a-time. The
// pooled refinement (RefineCtx) screens candidates with the kernel's
// one-dot-product bound first and evaluates only the survivors exactly;
// the brute-force scans never screen, so they stay independent oracles.
package scan

import (
	"math"

	"brepartition/internal/bregman"
	"brepartition/internal/disk"
	"brepartition/internal/kernel"
	"brepartition/internal/topk"
)

// KNN returns the exact k nearest neighbours of q (ids and distances,
// ascending) by scanning every point. The query-side terms of the
// divergence are hoisted once (kernel.PrepQuery) and shared across the
// whole scan — bit-identical to per-point Distance, at roughly half the
// transcendental cost for the log/exp divergences.
func KNN(div bregman.Divergence, points [][]float64, q []float64, k int) []topk.Item {
	if k <= 0 || len(points) == 0 {
		return nil
	}
	if k > len(points) {
		k = len(points)
	}
	kern := kernel.For(div)
	prep := prepFor(kern, q)
	sel := topk.New(k)
	for id, p := range points {
		sel.Offer(id, kern.DistancePrep(p, q, prep))
	}
	return sel.Items()
}

// KNNFilter is KNN restricted to the points keep admits (nil admits all):
// the exact k nearest among matching points, the ground truth filtered
// search is validated against. Non-matching points are never offered, so
// the answer is pre-filtered top-k, not a post-filtered truncation.
func KNNFilter(div bregman.Divergence, points [][]float64, q []float64, k int, keep func(id int) bool) []topk.Item {
	if keep == nil {
		return KNN(div, points, q, k)
	}
	if k <= 0 || len(points) == 0 {
		return nil
	}
	kern := kernel.For(div)
	prep := prepFor(kern, q)
	sel := topk.New(k)
	for id, p := range points {
		if keep(id) {
			sel.Offer(id, kern.DistancePrep(p, q, prep))
		}
	}
	return sel.Items()
}

// prepFor allocates and fills a query-prep buffer for kern; nil when the
// kernel hoists nothing (L2, generic), which DistancePrep accepts.
func prepFor(kern kernel.Kernel, q []float64) []float64 {
	n := kern.QueryScratchLen(len(q))
	if n == 0 {
		return nil
	}
	prep := make([]float64, n)
	kern.PrepQuery(prep, q)
	return prep
}

// KNNBlock is KNN over a flat row-major block: the kernel streams the
// whole block cache-linearly in chunks. Row indices are the returned ids.
func KNNBlock(kern kernel.Kernel, block kernel.FlatBlock, q []float64, k int) []topk.Item {
	if k <= 0 || block.N == 0 {
		return nil
	}
	if k > block.N {
		k = block.N
	}
	sel := topk.New(k)
	var out [RefineChunk]float64
	for lo := 0; lo < block.N; lo += RefineChunk {
		hi := lo + RefineChunk
		if hi > block.N {
			hi = block.N
		}
		sub := block.Slice(lo, hi)
		kern.DistancesTo(q, sub, out[:sub.N])
		for i := 0; i < sub.N; i++ {
			sel.Offer(lo+i, out[i])
		}
	}
	return sel.Items()
}

// RefineChunk bounds the per-run distance buffer: long slot runs are
// evaluated in chunks of this many points so the buffer stays small and
// resident.
const RefineChunk = 256

// Refine evaluates the exact distance of every candidate id and returns the
// k nearest, reading points through sess so the I/O of the refinement phase
// is charged to the query (candidates were prefetched during filtering, so
// these are buffer hits unless the filter skipped them).
func Refine(div bregman.Divergence, sess *disk.Session, candidates []int, q []float64, k int) []topk.Item {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	kern := kernel.For(div)
	sel := topk.New(k)
	var buf [RefineChunk]float64
	RefineCtx(kern, sess, candidates, q, sel, buf[:], prepFor(kern, q))
	return sel.Items()
}

// RefineCtx is the pooled-context refinement: the k nearest candidates
// are offered into sel (which the caller has sized and reset), using dist
// (len ≥ 1) as the block evaluation buffer and, when screened, as the
// cache of pass 1's lower bounds (a dist as long as candidates spares
// pass 2 every recomputation). prep is the query's
// kernel.PrepQuery output (or nil to forgo hoisting). RefineCtx performs
// no allocation; RefineCtxCount is the same call reporting how many
// candidates the exact kernel evaluated.
//
// For the transcendental kernels (kernel.Screens) over a store carrying
// screen scalars (disk.Store.SetScreen), the refinement is screened: pass
// 1 bounds every candidate's distance with one dot product
// (kernel.Screen) and selects the k-th smallest upper bound τ; pass 2
// evaluates exactly, in candidate order, only the candidates whose lower
// bound is ≤ τ. A candidate the screen drops has an exact distance
// strictly above the k-th smallest, so the answer is the one exact
// evaluation of every candidate gives, bit for bit. Candidates without
// scalars (appended after the build) and candidates the screen cannot
// bound (non-finite inputs) always survive.
//
// Unscreened refinement evaluates every candidate: those whose disk
// slots are physically consecutive — whole leaf clusters discovered by
// the filter — per arena block with kern.DistancesTo instead of
// point-at-a-time, streaming the refinement cache-linearly; isolated
// candidates through kern.DistancePrep when prep is supplied.
func RefineCtx(kern kernel.Kernel, sess *disk.Session, candidates []int, q []float64, sel *topk.Selector, dist []float64, prep []float64) {
	RefineCtxCount(kern, sess, candidates, q, sel, dist, prep)
}

// RefineCtxCount is RefineCtx returning the number of exact kernel
// evaluations it made: every candidate when unscreened, the screen's
// survivors otherwise.
func RefineCtxCount(kern kernel.Kernel, sess *disk.Session, candidates []int, q []float64, sel *topk.Selector, dist []float64, prep []float64) (exact int) {
	// The screen needs an empty selector (pass 1 borrows it to select τ)
	// and more candidates than k (otherwise every candidate survives).
	if prep != nil && sel.Len() == 0 && len(candidates) > sel.K() {
		if pts := sess.Store().ScreenPoints(kern); pts != nil {
			if sc, ok := kernel.NewScreen(kern, q, prep); ok {
				return refineScreened(kern, sess, candidates, q, sel, dist, prep, &sc, pts)
			}
		}
	}
	refineExact(kern, sess, candidates, q, sel, dist, prep)
	return len(candidates)
}

// refineScreened is the two-pass screened refinement (see RefineCtx).
// pts are the store's screen scalars, indexed by id; dist caches the
// lower bounds pass 1 computes for the first len(dist) candidates, so
// pass 2 recomputes only those beyond it.
func refineScreened(kern kernel.Kernel, sess *disk.Session, candidates []int, q []float64, sel *topk.Selector, dist, prep []float64, sc *kernel.Screen, pts []kernel.ScreenPoint) (exact int) {
	// Pass 1: τ, the k-th smallest upper bound among bounded candidates.
	// Candidates the screen cannot bound keep a lower bound of −∞.
	for i, id := range candidates {
		lower := math.Inf(-1)
		if id < len(pts) {
			if est, e, ok := sc.Bounds(sess.Point(id), pts[id]); ok {
				sel.Offer(id, est+e)
				lower = est - e
			}
		}
		if i < len(dist) {
			dist[i] = lower
		}
	}
	tau := math.Inf(1)
	if t, ok := sel.Threshold(); ok {
		tau = t
	}
	sel.ResetK(sel.K())
	// Pass 2: exact distances for every candidate whose lower bound
	// reaches τ. At least k candidates have an exact distance ≤ τ, so one
	// whose lower bound exceeds τ cannot be among the k nearest.
	for i, id := range candidates {
		if i < len(dist) {
			if dist[i] > tau {
				continue
			}
		} else if id < len(pts) {
			if est, e, ok := sc.Bounds(sess.Point(id), pts[id]); ok && est-e > tau {
				continue
			}
		}
		sel.Offer(id, kern.DistancePrep(sess.Point(id), q, prep))
		exact++
	}
	return exact
}

// refineExact offers the exact distance of every candidate, block at a
// time over consecutive slot runs.
func refineExact(kern kernel.Kernel, sess *disk.Session, candidates []int, q []float64, sel *topk.Selector, dist []float64, prep []float64) {
	store := sess.Store()
	hoisted := prep != nil
	for i := 0; i < len(candidates); {
		id := candidates[i]
		slot := store.Slot(id)
		// Extend the run while slots stay consecutive (bounded by the
		// distance buffer).
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
		case hoisted:
			sel.Offer(id, kern.DistancePrep(sess.Point(id), q, prep))
		default:
			sel.Offer(id, kern.Distance(sess.Point(id), q))
		}
		i = j
	}
}

// RefineSlots is the cold tier's refinement: candidates arrive as
// ascending *slots* (the survivors of a compressed-domain scan over the
// store's layout order), consecutive runs are evaluated block-at-a-time,
// and at each page boundary the next up-to-lookahead distinct survivor
// pages are enqueued for async prefetch so the backing store faults them
// while the current page computes. ids maps a slot to the offered id (nil
// = offer the slot itself). sel, dist (len ≥ 1) and prep follow
// RefineCtx's contracts; like it, RefineSlots performs no allocation.
func RefineSlots(kern kernel.Kernel, sess *disk.Session, slots []int, ids []int, q []float64, sel *topk.Selector, dist []float64, prep []float64, lookahead int) {
	store := sess.Store()
	perPage := store.PointsPerPage()
	hoisted := prep != nil
	lastPrefetched := -1
	for i := 0; i < len(slots); {
		slot := slots[i]
		if lookahead > 0 {
			// Entering a new page: line up the next few survivor pages
			// behind it. Issued once per page transition, before the
			// (synchronous) faults of the current run.
			if page := slot / perPage; page > lastPrefetched {
				lastPrefetched = page
				issued := 0
				prev := page
				for t := i + 1; t < len(slots) && issued < lookahead; t++ {
					if p := slots[t] / perPage; p > prev {
						sess.PrefetchPageAsync(p)
						prev = p
						issued++
					}
				}
			}
		}
		j := i + 1
		for j < len(slots) && j-i < len(dist) && slots[j] == slot+(j-i) {
			j++
		}
		switch {
		case j-i >= 2:
			block := sess.SlotBlock(slot, slot+(j-i))
			kern.DistancesTo(q, block, dist[:j-i])
			for t := i; t < j; t++ {
				if ids != nil {
					sel.Offer(ids[slots[t]], dist[t-i])
				} else {
					sel.Offer(slots[t], dist[t-i])
				}
			}
		default:
			id := slot
			if ids != nil {
				id = ids[slot]
			}
			p := sess.Point(store.IDAtSlot(slot))
			if hoisted {
				sel.Offer(id, kern.DistancePrep(p, q, prep))
			} else {
				sel.Offer(id, kern.Distance(p, q))
			}
		}
		i = j
	}
}

// RefineInMemory is Refine without I/O accounting, for memory-resident use.
func RefineInMemory(div bregman.Divergence, points [][]float64, candidates []int, q []float64, k int) []topk.Item {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	kern := kernel.For(div)
	prep := prepFor(kern, q)
	sel := topk.New(k)
	for _, id := range candidates {
		sel.Offer(id, kern.DistancePrep(points[id], q, prep))
	}
	return sel.Items()
}

// Range returns all ids with D_f(x, q) ≤ r by brute force.
func Range(div bregman.Divergence, points [][]float64, q []float64, r float64) []int {
	kern := kernel.For(div)
	prep := prepFor(kern, q)
	var out []int
	for id, p := range points {
		if kern.DistancePrep(p, q, prep) <= r {
			out = append(out, id)
		}
	}
	return out
}

// Package topk provides the bounded max-heap used everywhere BrePartition
// selects "the k smallest of n" — the k-th smallest upper bound in
// Algorithm 4 (O(n log k)), kNN refinement, and the baselines' candidate
// maintenance.
package topk

import "slices"

// Item pairs a candidate identifier with its score (a distance or bound).
type Item struct {
	ID    int
	Score float64
}

// Selector keeps the k smallest items seen so far in Compare order (score,
// then id) using a max-heap of size ≤ k: the root is the current k-th
// smallest item, so a new item replaces the root iff it orders strictly
// before it. Because ties on the score are broken by id, the retained set
// depends only on the multiset of offers, never on their order.
//
// The zero value is unusable; construct with New.
type Selector struct {
	k    int
	heap []Item // max-heap in Compare order
}

// New returns a Selector retaining the k smallest-scored items. k must be
// positive.
func New(k int) *Selector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Selector{k: k, heap: make([]Item, 0, k)}
}

// K returns the selector's capacity.
func (s *Selector) K() int { return s.k }

// Len returns how many items are currently retained (≤ k).
func (s *Selector) Len() int { return len(s.heap) }

// Full reports whether k items have been retained.
func (s *Selector) Full() bool { return len(s.heap) == s.k }

// Threshold returns the current k-th smallest score: the score below which
// a new item would be admitted. Before the selector is full it returns
// +Inf semantics via the ok=false flag.
func (s *Selector) Threshold() (score float64, ok bool) {
	if !s.Full() {
		return 0, false
	}
	return s.heap[0].Score, true
}

// Admissible reports whether (id, score) would enter the selection: true
// while not full, or when it orders before the current root under Compare
// (a score tying the root's enters iff its id is smaller).
func (s *Selector) Admissible(id int, score float64) bool {
	if !s.Full() {
		return true
	}
	return Compare(Item{ID: id, Score: score}, s.heap[0]) < 0
}

// Offer considers (id, score) for the selection and reports whether it was
// admitted.
func (s *Selector) Offer(id int, score float64) bool {
	if len(s.heap) < s.k {
		s.heap = append(s.heap, Item{ID: id, Score: score})
		s.up(len(s.heap) - 1)
		return true
	}
	it := Item{ID: id, Score: score}
	if Compare(it, s.heap[0]) >= 0 {
		return false
	}
	s.heap[0] = it
	s.down(0)
	return true
}

// Items returns the retained items sorted ascending by score (ties broken
// by ID for determinism). The selector remains usable afterwards.
func (s *Selector) Items() []Item {
	return s.AppendItems(nil)
}

// AppendItems appends the retained items to dst sorted ascending by score
// (ties broken by ID) and returns the extended slice. With a dst of
// sufficient capacity it performs no allocation — the zero-alloc search
// path hands it a reused buffer. The selector remains usable afterwards.
func (s *Selector) AppendItems(dst []Item) []Item {
	base := len(dst)
	dst = append(dst, s.heap...)
	slices.SortFunc(dst[base:], Compare)
	return dst
}

// Compare orders ascending by (Score, ID) — the deterministic result
// order every search surface uses. As a named function (not a closure) it
// keeps sorting with slices.SortFunc allocation-free.
func Compare(a, b Item) int {
	switch {
	case a.Score < b.Score:
		return -1
	case a.Score > b.Score:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// MaxItem returns the retained item with the largest (Score, ID) — once
// the selector is full, the k-th smallest overall with the same tie-break
// Items uses — without sorting: it is the heap root. ok is false while
// the selector is empty.
func (s *Selector) MaxItem() (it Item, ok bool) {
	if len(s.heap) == 0 {
		return Item{}, false
	}
	return s.heap[0], true
}

// Reset empties the selector, retaining capacity.
func (s *Selector) Reset() { s.heap = s.heap[:0] }

// ResetK empties the selector and changes its capacity to k, reusing the
// backing array when possible; the alloc-free reuse path for pooled
// per-query selectors. k must be positive.
func (s *Selector) ResetK(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	s.k = k
	if cap(s.heap) < k {
		s.heap = make([]Item, 0, k)
	} else {
		s.heap = s.heap[:0]
	}
}

func (s *Selector) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if Compare(s.heap[parent], s.heap[i]) >= 0 {
			return
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *Selector) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && Compare(s.heap[l], s.heap[largest]) > 0 {
			largest = l
		}
		if r < n && Compare(s.heap[r], s.heap[largest]) > 0 {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}

// KthSmallest returns the k-th smallest value of scores (1-based k) in
// O(n log k) without mutating the input. It panics when k is out of range.
func KthSmallest(scores []float64, k int) float64 {
	if k <= 0 || k > len(scores) {
		panic("topk: k out of range")
	}
	sel := New(k)
	for i, sc := range scores {
		sel.Offer(i, sc)
	}
	v, _ := sel.Threshold()
	return v
}

// MinQueue is a conventional min-priority queue keyed by float64, used by
// best-first BB-tree traversal. The zero value is ready to use.
type MinQueue struct {
	items []Item
}

// Len returns the number of queued items.
func (q *MinQueue) Len() int { return len(q.items) }

// Push enqueues (id, score).
func (q *MinQueue) Push(id int, score float64) {
	q.items = append(q.items, Item{ID: id, Score: score})
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].Score <= q.items[i].Score {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

// Pop removes and returns the smallest-scored item. ok is false on empty.
func (q *MinQueue) Pop() (it Item, ok bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	it = q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i, n := 0, len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].Score < q.items[smallest].Score {
			smallest = l
		}
		if r < n && q.items[r].Score < q.items[smallest].Score {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return it, true
}

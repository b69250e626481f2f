package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectorBasics(t *testing.T) {
	s := New(3)
	if s.Full() {
		t.Fatal("fresh selector should not be full")
	}
	if _, ok := s.Threshold(); ok {
		t.Fatal("threshold should be unavailable before full")
	}
	for i, sc := range []float64{5, 1, 3} {
		if !s.Offer(i, sc) {
			t.Fatalf("offer %d rejected while not full", i)
		}
	}
	if thr, ok := s.Threshold(); !ok || thr != 5 {
		t.Fatalf("threshold = %v,%v want 5,true", thr, ok)
	}
	if s.Offer(9, 6) {
		t.Fatal("worse item admitted")
	}
	if !s.Offer(10, 0.5) {
		t.Fatal("better item rejected")
	}
	items := s.Items()
	want := []Item{{10, 0.5}, {1, 1}, {2, 3}}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("items[%d] = %v, want %v", i, items[i], want[i])
		}
	}
}

func TestSelectorMatchesSortProperty(t *testing.T) {
	f := func(scores []float64, kRaw uint8) bool {
		if len(scores) == 0 {
			return true
		}
		k := int(kRaw)%len(scores) + 1
		s := New(k)
		for i, sc := range scores {
			s.Offer(i, sc)
		}
		got := s.Items()
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i].Score != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorAdmissible(t *testing.T) {
	s := New(2)
	if !s.Admissible(7, 1e18) {
		t.Fatal("anything is admissible while not full")
	}
	s.Offer(0, 1)
	s.Offer(1, 2)
	if s.Admissible(2, 2) {
		t.Fatal("equal-to-threshold with a larger id should not be admissible")
	}
	if !s.Admissible(0, 2) {
		t.Fatal("equal-to-threshold with a smaller id should be admissible")
	}
	if !s.Admissible(9, 1.5) {
		t.Fatal("below-threshold should be admissible")
	}
}

func TestSelectorReset(t *testing.T) {
	s := New(2)
	s.Offer(0, 1)
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset should empty the selector")
	}
}

func TestSelectorTieBreakByID(t *testing.T) {
	s := New(3)
	s.Offer(7, 1)
	s.Offer(3, 1)
	s.Offer(5, 1)
	items := s.Items()
	if items[0].ID != 3 || items[1].ID != 5 || items[2].ID != 7 {
		t.Fatalf("tie break wrong: %v", items)
	}
}

// TestSelectorTieAtKthPlace pins admission by (score, id): when the k-th
// place ties, the smaller id wins whatever the offer order.
func TestSelectorTieAtKthPlace(t *testing.T) {
	s := New(1)
	s.Offer(7, 1)
	s.Offer(3, 1)
	if it, _ := s.MaxItem(); it.ID != 3 {
		t.Fatalf("k=1 tie kept id %d, want 3", it.ID)
	}
	if s.Offer(5, 1) {
		t.Fatal("a tie with a larger id displaced the root")
	}
}

// TestSelectorPermutationInvariant is the property the two-pass refine
// screen relies on: over inputs with many ties, every offer order yields
// the same items, equal to the input sorted by Compare and cut at k, and
// MaxItem/Threshold name the k-th of them.
func TestSelectorPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		items := make([]Item, n)
		for i := range items {
			// Few distinct scores, so ties are the common case.
			items[i] = Item{ID: i, Score: float64(rng.Intn(4))}
		}
		want := append([]Item(nil), items...)
		sort.Slice(want, func(a, b int) bool { return Compare(want[a], want[b]) < 0 })
		k := 1 + rng.Intn(n)
		want = want[:k]
		for perm := 0; perm < 4; perm++ {
			s := New(k)
			for _, i := range rng.Perm(n) {
				s.Offer(items[i].ID, items[i].Score)
			}
			got := s.Items()
			if len(got) != k {
				t.Fatalf("trial %d: %d items, want %d", trial, len(got), k)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d perm %d: items %v, want %v", trial, perm, got, want)
				}
			}
			if it, _ := s.MaxItem(); it != want[k-1] {
				t.Fatalf("trial %d: MaxItem %v, want %v", trial, it, want[k-1])
			}
			if thr, ok := s.Threshold(); !ok || thr != want[k-1].Score {
				t.Fatalf("trial %d: Threshold %v,%v, want %v", trial, thr, ok, want[k-1].Score)
			}
		}
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	New(0)
}

func TestKthSmallest(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3}
	if got := KthSmallest(v, 1); got != 1 {
		t.Fatalf("1st = %g", got)
	}
	if got := KthSmallest(v, 4); got != 7 {
		t.Fatalf("4th = %g", got)
	}
	if got := KthSmallest(v, 6); got != 9 {
		t.Fatalf("6th = %g", got)
	}
}

func TestKthSmallestPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KthSmallest([]float64{1}, 2)
}

func TestMinQueueOrdering(t *testing.T) {
	var q MinQueue
	rng := rand.New(rand.NewSource(1))
	n := 500
	for i := 0; i < n; i++ {
		q.Push(i, rng.Float64())
	}
	prev := -1.0
	count := 0
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		if it.Score < prev {
			t.Fatalf("pop out of order: %g after %g", it.Score, prev)
		}
		prev = it.Score
		count++
	}
	if count != n {
		t.Fatalf("popped %d of %d", count, n)
	}
}

func TestMinQueueEmptyPop(t *testing.T) {
	var q MinQueue
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue should report !ok")
	}
}

func TestMinQueueInterleaved(t *testing.T) {
	var q MinQueue
	q.Push(1, 5)
	q.Push(2, 1)
	if it, _ := q.Pop(); it.ID != 2 {
		t.Fatalf("want id 2, got %d", it.ID)
	}
	q.Push(3, 0.5)
	q.Push(4, 10)
	if it, _ := q.Pop(); it.ID != 3 {
		t.Fatalf("want id 3, got %d", it.ID)
	}
	if it, _ := q.Pop(); it.ID != 1 {
		t.Fatalf("want id 1, got %d", it.ID)
	}
	if it, _ := q.Pop(); it.ID != 4 {
		t.Fatalf("want id 4, got %d", it.ID)
	}
}

func BenchmarkSelectorOffer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 100000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(100)
		for id, sc := range scores {
			s.Offer(id, sc)
		}
	}
}

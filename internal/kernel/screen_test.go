package kernel

import (
	"math"
	"math/rand"
	"testing"

	"brepartition/internal/bregman"
)

// screenedDivs are the divergences whose kernels carry the refine screen.
func screenedDivs() []bregman.Divergence {
	return []bregman.Divergence{
		bregman.Exponential{}, bregman.GeneralizedKL{}, bregman.ItakuraSaito{},
		bregman.ShannonEntropy{}, bregman.BurgEntropy{},
	}
}

// checkScreen asserts the screen's contract for one (x, q) pair: when it
// reports ok, the exact kernel's DistancePrep value lies within e of est.
// It returns whether the screen applied.
func checkScreen(t *testing.T, kern Kernel, x, q []float64) bool {
	t.Helper()
	prep := make([]float64, kern.QueryScratchLen(len(q)))
	kern.PrepQuery(prep, q)
	sc, ok := NewScreen(kern, q, prep)
	if !ok {
		t.Fatalf("%s: NewScreen refused a screened kernel", kern.Name())
	}
	p, ok := PointScreen(kern, x)
	if !ok {
		t.Fatalf("%s: PointScreen refused a screened kernel", kern.Name())
	}
	est, e, ok := sc.Bounds(x, p)
	if !ok {
		return false
	}
	k := kern.DistancePrep(x, q, prep)
	if !(math.Abs(est-k) <= e) {
		t.Fatalf("%s d=%d: |S − K| = |%g − %g| = %g exceeds bound %g\nx=%v\nq=%v",
			kern.Name(), len(x), est, k, math.Abs(est-k), e, x, q)
	}
	return true
}

// TestScreenBoundSound is the screen's soundness property: for every
// screened kernel, over x ≈ y, values near the domain edges, large
// magnitudes and every dimensionality 1..512 shape (multiples of 4 and
// not), |S − K| ≤ e with K the exact kernel's value. Benign inputs must
// actually be screened (ok), so the test cannot pass by refusing.
func TestScreenBoundSound(t *testing.T) {
	type gen func(rng *rand.Rand, positive bool) float64
	benign := func(rng *rand.Rand, positive bool) float64 {
		if positive {
			return 0.1 + rng.Float64()
		}
		return rng.NormFloat64()
	}
	tiny := func(rng *rand.Rand, positive bool) float64 {
		if positive {
			return math.Pow(10, -300*rng.Float64())
		}
		return -700 * rng.Float64()
	}
	huge := func(rng *rand.Rand, positive bool) float64 {
		if positive {
			return math.Pow(10, 300*rng.Float64())
		}
		return 700 * rng.Float64()
	}
	wide := func(rng *rand.Rand, positive bool) float64 {
		if positive {
			return math.Pow(10, 40*rng.NormFloat64())
		}
		return 60 * rng.NormFloat64()
	}
	// Relations between the point and the query.
	type rel func(rng *rand.Rand, y float64, g gen, positive bool) float64
	independent := func(rng *rand.Rand, _ float64, g gen, positive bool) float64 { return g(rng, positive) }
	equal := func(_ *rand.Rand, y float64, _ gen, _ bool) float64 { return y }
	ulp := func(rng *rand.Rand, y float64, _ gen, _ bool) float64 {
		if rng.Intn(2) == 0 {
			return math.Nextafter(y, math.Inf(1))
		}
		return math.Nextafter(y, math.Inf(-1))
	}
	near := func(rng *rand.Rand, y float64, _ gen, positive bool) float64 {
		v := y * (1 + 1e-9*rng.NormFloat64())
		if positive && v <= 0 {
			return y
		}
		return v
	}
	gens := []struct {
		name   string
		g      gen
		benign bool
	}{{"benign", benign, true}, {"tiny", tiny, false}, {"huge", huge, false}, {"wide", wide, false}}
	rels := []struct {
		name string
		r    rel
	}{{"independent", independent}, {"equal", equal}, {"ulp", ulp}, {"near", near}}
	dims := []int{1, 2, 3, 4, 5, 7, 8, 13, 31, 64, 127, 192, 255, 512}

	for _, div := range screenedDivs() {
		kern := For(div)
		lo, _ := div.Domain()
		positive := lo == 0
		for _, gc := range gens {
			for _, rc := range rels {
				rng := rand.New(rand.NewSource(int64(len(gc.name)*31 + len(rc.name))))
				screened := 0
				for _, d := range dims {
					for trial := 0; trial < 6; trial++ {
						x := make([]float64, d)
						q := make([]float64, d)
						for j := range q {
							q[j] = gc.g(rng, positive)
							x[j] = rc.r(rng, q[j], gc.g, positive)
						}
						if !bregman.InDomain(div, x) || !bregman.InDomain(div, q) {
							continue
						}
						if checkScreen(t, kern, x, q) {
							screened++
						}
					}
				}
				if gc.benign && screened != 6*len(dims) {
					t.Fatalf("%s %s/%s: screen applied to %d of %d benign pairs", kern.Name(), gc.name, rc.name, screened, 6*len(dims))
				}
			}
		}
	}
}

// TestScreenUnscreenedKernels pins the screen's scope: L2, Mahalanobis
// and the generic fallback have no screen.
func TestScreenUnscreenedKernels(t *testing.T) {
	for _, k := range []Kernel{For(bregman.SquaredEuclidean{}), For(bregman.Mahalanobis{W: 2}), Generic(bregman.Exponential{})} {
		if Screens(k) {
			t.Fatalf("%s: unexpectedly screened", k.Name())
		}
		if _, ok := PointScreen(k, []float64{1}); ok {
			t.Fatalf("%s: PointScreen accepted an unscreened kernel", k.Name())
		}
		if _, ok := NewScreen(k, []float64{1}, nil); ok {
			t.Fatalf("%s: NewScreen accepted an unscreened kernel", k.Name())
		}
	}
	for _, div := range screenedDivs() {
		if !Screens(For(div)) {
			t.Fatalf("%s: not screened", div.Name())
		}
	}
}

// TestScreenNonFiniteRefuses pins the escape hatch: inputs whose mass is
// not finite make Bounds report !ok, so the caller evaluates exactly.
func TestScreenNonFiniteRefuses(t *testing.T) {
	kern := For(bregman.Exponential{})
	q := []float64{0, 1}
	prep := make([]float64, kern.QueryScratchLen(2))
	kern.PrepQuery(prep, q)
	sc, _ := NewScreen(kern, q, prep)
	x := []float64{800, 0} // e^800 overflows
	p, _ := PointScreen(kern, x)
	if _, _, ok := sc.Bounds(x, p); ok {
		t.Fatal("screen accepted a point whose generator overflows")
	}
}

// screenCoord maps a fuzzed float into div's domain over a range wide
// enough to reach both edges: (1e-300, 1e300) for positive generators and
// (−700, 700) for the exponential.
func screenCoord(div bregman.Divergence, w float64) float64 {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		w = 1
	}
	if lo, _ := div.Domain(); lo == 0 {
		return math.Pow(10, math.Mod(w, 300))
	}
	return math.Mod(w, 700)
}

// FuzzScreenBound fuzzes the screen's soundness: a seeded vector pair of
// fuzzed dimensionality, centre, spread and x–y distance, checked under
// every screened kernel. Run the stored corpus with `go test`, explore
// with `go test -fuzz=FuzzScreenBound ./internal/kernel`.
func FuzzScreenBound(f *testing.F) {
	f.Add(int64(1), uint16(192), 0.0, 0.3, 0.0)
	f.Add(int64(2), uint16(3), 1.0, 0.0, 1e-12)
	f.Add(int64(3), uint16(511), -250.0, 50.0, 1.0)
	f.Add(int64(4), uint16(17), 280.0, 5.0, 1e-3)
	f.Add(int64(5), uint16(0), 0.5, 2.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, dRaw uint16, centre, spread, gap float64) {
		d := 1 + int(dRaw)%512
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 1
		}
		if math.IsNaN(gap) || math.IsInf(gap, 0) {
			gap = 0
		}
		for _, div := range screenedDivs() {
			rng := rand.New(rand.NewSource(seed))
			x := make([]float64, d)
			q := make([]float64, d)
			for j := range q {
				w := centre + math.Mod(spread, 100)*rng.NormFloat64()
				q[j] = screenCoord(div, w)
				x[j] = screenCoord(div, w+math.Mod(gap, 100)*rng.NormFloat64())
			}
			if !bregman.InDomain(div, x) || !bregman.InDomain(div, q) {
				continue
			}
			checkScreen(t, For(div), x, q)
		}
	})
}

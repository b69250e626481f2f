package kernel

import "math"

// The refine screen: the paper's §4 tuple identity used as an exact
// filter in front of the exact kernel.
//
// For a decomposable generator f(x) = Σφ(xⱼ) with gradient g = ∇f(y),
//
//	D_f(x, y) = αx + Cy − ⟨x, g⟩,  αx = Σφ(xⱼ),  Cy = Σyⱼgⱼ − Σφ(yⱼ),
//
// which is the identity behind Theorem 1 (αy = −Σφ(yⱼ), βyy = Σyⱼgⱼ). With
// αx stored per point and Cy, g hoisted per query, it costs one dot
// product per point instead of one transcendental per coordinate. It
// cancels catastrophically when x ≈ y — exactly where kNN ranks — so it
// never produces an answer. It only brackets the exact kernel's value K
// (DistancePrep / DistancesTo, after rounding and the clamp at 0):
//
//	S − e ≤ K ≤ S + e,
//
// and a caller discards a point only when its lower bound S − e exceeds
// the k-th smallest upper bound. Every answer is still computed by the
// exact kernel, so results stay bit-identical.
//
// Error bound. Let u = 2⁻⁵³, γₘ = m·u/(1 − m·u), n = len(x), and take the
// floating-point values the exact kernel reads as given: aⱼ = φ(xⱼ) (the
// same expression, evaluated at build time), bⱼ = φ(yⱼ) and gⱼ from
// PrepQuery, xⱼ and yⱼ. Both K and S approximate the same real number
//
//	T = Σⱼ (aⱼ − bⱼ − gⱼ(xⱼ − yⱼ)),
//
// so transcendental errors cancel and only arithmetic rounding differs.
// Write Λ = Σ|aⱼ| + Σ|bⱼ| + Σ|yⱼgⱼ| + ‖g‖₂‖x‖₂; by Cauchy–Schwarz
// Σ|xⱼgⱼ| ≤ ‖g‖₂‖x‖₂, so every partial sum below is at most Λ in size.
//
//   - K: each term ((aⱼ − bⱼ) − gⱼ·(xⱼ − yⱼ)) takes three roundings, so
//     |t̂ⱼ − tⱼ| ≤ γ₃(|aⱼ| + |bⱼ| + |gⱼxⱼ| + |gⱼyⱼ|); the ordered
//     accumulation adds γₙΣ|t̂ⱼ|. Together |ŝ − T| ≤ γₙ₊₃Λ.
//   - S: αx (n − 1 additions), Cy (n products and 2n − 1 additions) and
//     the dot product (n products, any summation order) each carry a
//     γₙ₊₂ relative error on their part of Λ; the two final additions
//     add γ₂ on the total. Together |S − T| ≤ γₙ₊₅Λ.
//   - The clamp at 0 applied to both sides cannot widen the gap.
//
// Hence |S − K| ≤ 2γₙ₊₅Λ. The stored norms are computed with scaling
// (norm2), so they carry only a relative error of order (n+3)u, and the
// bound is evaluated in floating point too; the screen therefore uses
//
//	e = 8(n+8)u·Λ̂ + 8(n+8)·2⁻¹⁰⁷⁴,
//
// a factor of about four above the derived bound, which also absorbs the
// rounding of the caller's est ± e (at most u·Λ̂ each). The second term
// covers underflow: each of the at most 3n products may lose up to half
// the smallest subnormal outright. Non-finite or huge (Λ̂ > 2¹⁰²⁰, where the
// exact kernel could overflow) inputs report ok = false and the point
// must be evaluated exactly. The derivation assumes the compiler does not
// fuse multiply-adds differently in the exact kernel and in the build-time
// φ sums; on amd64 it fuses neither.

// ScreenPoint holds one point's build-time scalars for the refine screen.
type ScreenPoint struct {
	// Alpha is αx = Σφ(xⱼ), summed over the generator values the exact
	// kernel computes.
	Alpha float64
	// AbsAlpha is Σ|φ(xⱼ)|, the point's share of the error bound.
	AbsAlpha float64
	// Norm is ‖x‖₂, which bounds Σ|xⱼgⱼ| by Cauchy–Schwarz.
	Norm float64
}

// screenKernel is implemented by the kernels whose exact distance is the
// per-coordinate expression φ(xⱼ) − φ(yⱼ) − φ′(yⱼ)(xⱼ − yⱼ) with a
// transcendental φ: exp, GKL, Itakura–Saito, Shannon and Burg. L2 and
// Mahalanobis already run at dot-product speed, and the generic kernel
// has no closed form, so they are not screened.
type screenKernel interface {
	// phi is φ written exactly as the kernel's *PrepSum loop evaluates
	// its first term, so αx = Σφ(xⱼ) sums the very values the exact
	// kernel uses.
	phi(v float64) float64
	// screenTerms returns φ(yⱼ) and φ′(yⱼ) as held in the PrepQuery
	// scratch of a d-dimensional query.
	screenTerms(prep []float64, d int) (phi, g []float64)
}

func (expKernel) phi(v float64) float64 { return math.Exp(v) }
func (expKernel) screenTerms(prep []float64, d int) (phi, g []float64) {
	return prep[:d], prep[:d] // φ = φ′ = exp
}

func (isKernel) phi(v float64) float64 { return -math.Log(v) }
func (isKernel) screenTerms(prep []float64, d int) (phi, g []float64) {
	return prep[:d], prep[d : 2*d]
}

func (gklKernel) phi(v float64) float64 { return v*math.Log(v) - v }
func (gklKernel) screenTerms(prep []float64, d int) (phi, g []float64) {
	return prep[:d], prep[d : 2*d]
}

func (shannonKernel) phi(v float64) float64 { return v * math.Log(v) }
func (shannonKernel) screenTerms(prep []float64, d int) (phi, g []float64) {
	return prep[:d], prep[d : 2*d]
}

func (burgKernel) phi(v float64) float64 { return -math.Log(v) + v - 1 }
func (burgKernel) screenTerms(prep []float64, d int) (phi, g []float64) {
	return prep[:d], prep[d : 2*d]
}

// Screens reports whether k supports the refine screen.
func Screens(k Kernel) bool {
	_, ok := k.(screenKernel)
	return ok
}

// PointScreen computes x's screen scalars under k; ok is false when k is
// not screened.
func PointScreen(k Kernel, x []float64) (p ScreenPoint, ok bool) {
	sk, ok := k.(screenKernel)
	if !ok {
		return ScreenPoint{}, false
	}
	p.Alpha, p.AbsAlpha = phiSums(x, sk.phi)
	p.Norm = norm2(x)
	return p, true
}

// Screen is the query side of the refine screen for one query.
type Screen struct {
	g     []float64 // ∇f(y), aliasing the PrepQuery scratch
	c     float64   // Cy = Σyⱼgⱼ − Σφ(yⱼ)
	abs   float64   // Σ|φ(yⱼ)| + Σ|yⱼgⱼ|
	gNorm float64   // ‖g‖₂
	scale float64   // 8(n+8)·2⁻⁵³
	floor float64   // 8(n+8)·2⁻¹⁰⁷⁴
}

// maxScreenMass bounds Λ̂: above it an intermediate of the exact kernel
// could overflow, so the point is left to the exact kernel.
const maxScreenMass = 0x1p1020

// NewScreen prepares the screen for query q from its PrepQuery scratch
// prep (which the Screen aliases: prep must not change while the Screen
// is in use). ok is false when k is not screened or prep is too short.
// It allocates nothing.
func NewScreen(k Kernel, q, prep []float64) (s Screen, ok bool) {
	sk, ok := k.(screenKernel)
	d := len(q)
	if !ok || len(prep) < k.QueryScratchLen(d) {
		return Screen{}, false
	}
	phi, g := sk.screenTerms(prep, d)
	s.g = g
	s.c, s.abs = queryTerms(q, phi, g)
	s.gNorm = norm2(g)
	m := float64(8 * (d + 8))
	s.scale = m * 0x1p-53
	s.floor = m * math.SmallestNonzeroFloat64
	return s, true
}

// Bounds returns the screen's estimate est (clamped at 0 like the exact
// kernel) and bound e of x's distance to the query, with
// |est − K| ≤ e for K the exact kernel's value; p must be x's
// ScreenPoint under the same kernel. ok is false when the inputs are not
// finite or too large to bound, and the caller must then evaluate x
// exactly.
func (s *Screen) Bounds(x []float64, p ScreenPoint) (est, e float64, ok bool) {
	mass := p.AbsAlpha + s.abs + s.gNorm*p.Norm
	if !(mass <= maxScreenMass) {
		return 0, 0, false
	}
	est = (p.Alpha + s.c) - dot(x, s.g)
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return 0, 0, false
	}
	return clamp0(est), s.scale*mass + s.floor, true
}

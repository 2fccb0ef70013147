package funcs

import (
	"math"
	"math/big"
)

// At is an exact point w of a univariate domain, prepared once for every
// CmpAt there: w is nil when it is x exactly; otherwise x is w rounded
// to float64 when that is normal, so |x − w| ≤ 2⁻⁵³·|w|, and NaN when
// it is not, which sends every comparison to the exact path.
type At struct {
	w *big.Rat
	x float64
}

// NewAt prepares the exact point w.
func NewAt(w *big.Rat) At {
	if x, exact := w.Float64(); exact || (math.Abs(x) >= 0x1p-1022 && !math.IsInf(x, 0)) {
		return At{w: w, x: x}
	}
	return At{w: w, x: math.NaN()}
}

// AtFloat prepares the finite exact point x: no big.Rat unless needed.
func AtFloat(x float64) At { return At{x: x} }

// CmpAt returns the sign of f(w) − g(w) for univariate f and g: always
// the exact answer, so the same on every CPU.
//
// It decides in float64 first. Let u = 2⁻⁵³ and, per function, p =
// fl(c·x) (explicitly rounded, so never fused into the add), s = fl(p+b);
// d = fl(s_f − s_g). Round-to-nearest errs by at most u relatively at
// every step while no product is subnormal, and |x − w| ≤ u·|w| (the
// half-ulp of x), so |p − c·w| ≤ 3u·|p| and |s − (c·w+b)| ≤ 4u·(|p|+|b|).
// With M = |p_f|+|p_g|+|b_f|+|b_g|, |s_f − s_g| ≤ (1+u)·M, so d is
// within 6u·M of T = f(w) − g(w). The float sum m of those four terms is
// at least (1−3u)·M, so |d| > 8u·m implies |d − T| < |d|: T has d's
// sign. The test is |d|·2⁵⁰ > m, exact (scaling up by a power of two, or
// +Inf) and false for a NaN. A near-tie, an underflowing product, a
// non-finite term or a witness with no normal float falls back to
// EvalRat.
func CmpAt(f, g Linear, at At) int {
	if len(f.Coef) == 1 && len(g.Coef) == 1 {
		cf, cg, x := f.Coef[0], g.Coef[0], at.x
		pf, pg := float64(cf*x), float64(cg*x)
		// A subnormal product of non-zero factors may have lost precision.
		tiny := func(p, c float64) bool { return math.Abs(p) < 0x1p-1022 && c != 0 && x != 0 }
		if !tiny(pf, cf) && !tiny(pg, cg) {
			d := (pf + f.Bias) - (pg + g.Bias)
			m := math.Abs(pf) + math.Abs(pg) + math.Abs(f.Bias) + math.Abs(g.Bias)
			if math.Abs(d)*0x1p50 > m && m <= math.MaxFloat64 && !math.IsInf(d, 0) {
				return int(math.Copysign(1, d))
			}
		}
	}
	w := at.w
	if w == nil {
		w = new(big.Rat).SetFloat64(at.x)
	}
	return f.EvalRat(w).Cmp(g.EvalRat(w))
}

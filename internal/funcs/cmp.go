package funcs

import (
	"math"
	"math/big"
)

// CmpAt returns the sign of f(x) − g(x) for univariate f and g at the
// float x: always the exact answer, so the same on every CPU. It decides
// in three stages, each only when the one before cannot.
//
// First in float64. Let u = 2⁻⁵³ and, per function, p = fl(c·x)
// (explicitly rounded, so never fused into the add), s = fl(p+b);
// d = fl(s_f − s_g). Round-to-nearest errs by at most u relatively at
// every step while no product is subnormal, so |s − (c·x+b)| ≤
// 2u·(|p|+|b|) and, with M = |p_f|+|p_g|+|b_f|+|b_g|, d is within 4u·M
// of T = f(x) − g(x). The float sum m of those four terms is at least
// (1−3u)·M, so |d| > 8u·m implies |d − T| < |d|: T has d's sign. The
// test is |d|·2⁵⁰ > m, exact (scaling up by a power of two, or +Inf)
// and false for a NaN.
//
// Then exactly in float64 (sign6), and last, outside that stage's range,
// by the EvalRat comparison.
func CmpAt(f, g Linear, x float64) int {
	if len(f.Coef) == 1 && len(g.Coef) == 1 {
		cf, cg := f.Coef[0], g.Coef[0]
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
		if s, ok := sign6(cf, f.Bias, cg, g.Bias, x); ok {
			return s
		}
	}
	w := new(big.Rat).SetFloat64(x)
	return f.EvalRat(w).Cmp(g.EvalRat(w))
}

// sign6 returns the exact sign of (cf·x + bf) − (cg·x + bg) without
// allocating, or ok = false outside its range: every input below 2⁵⁰⁰
// in magnitude and every product of non-zero factors at least 2⁻⁹⁰⁰,
// where no step overflows and no product's error underflows. A product
// is fl(c·x) plus its exact error (Dekker's two-product over Veltkamp
// halves of 26 bits, whose products are exact; every product explicitly
// rounded), and the six terms are summed by Shewchuk's grow-expansion
// (Knuth's two-sum, zeros dropped) into a nonoverlapping expansion,
// ascending in magnitude, whose sign is its last component's.
func sign6(cf, bf, cg, bg, x float64) (sign int, ok bool) {
	var e [6]float64
	for i, v := range [5]float64{cf, cg, bf, bg, x} {
		if !(math.Abs(v) < 0x1p500) {
			return 0, false // also NaN
		}
		if i < 2 && v != 0 && x != 0 && math.Abs(float64(v*x)) < 0x1p-900 {
			return 0, false // also a product that underflows to zero
		}
	}
	n := 0
	for _, t := range [6]float64{bf, -bg, float64(cf * x), -float64(cg * x), twoProductErr(cf, x), -twoProductErr(cg, x)} {
		m := 0
		for _, c := range e[:n] {
			s := t + c
			bv := s - t
			if h := (t - (s - bv)) + (c - bv); h != 0 {
				e[m], m = h, m+1
			}
			t = s
		}
		if t != 0 {
			e[m], m = t, m+1
		}
		n = m
	}
	if n == 0 {
		return 0, true
	}
	return int(math.Copysign(1, e[n-1])), true
}

// twoProductErr returns a·b − fl(a·b), exactly in sign6's range.
func twoProductErr(a, b float64) float64 {
	half := func(v float64) (h, l float64) {
		c := float64((0x1p27 + 1) * v)
		h = c - (c - v)
		return h, v - h
	}
	ah, al := half(a)
	bh, bl := half(b)
	return float64(al*bl) - (((float64(a*b) - float64(ah*bh)) - float64(al*bh)) - float64(ah*bl))
}

package itree

import (
	"cmp"
	"context"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// crossingTable is one adversarial input of TestPairs1DIsTheExactCrossingSet.
type crossingTable struct {
	name   string
	lo, hi float64
	fs     []funcs.Linear
}

// through returns lines of the given slopes that all pass exactly
// through (t, 0): slopes are powers of two, so the bias −s·t is exact.
func through(t float64, slopes ...float64) [][2]float64 {
	out := make([][2]float64, len(slopes))
	for i, s := range slopes {
		out[i] = [2]float64{s, -s * t}
	}
	return out
}

// crossingTables builds the differential test's inputs: random lines,
// parallel and identical lines, many lines concurrent at one point,
// crossings exactly on each domain edge and one ulp either side of it,
// coefficients spanning 1e-300…1e300 and beyond, and a pair whose
// rounded hyperplane root lies inside the domain while the lines
// themselves cross on its edge.
func crossingTables() []crossingTable {
	rng := rand.New(rand.NewSource(41))
	var tabs []crossingTable
	for trial := 0; trial < 5; trial++ {
		var ps [][2]float64
		for i := 0; i < 60; i++ {
			ps = append(ps, [2]float64{rng.NormFloat64(), rng.NormFloat64()})
		}
		tabs = append(tabs, crossingTable{"random", -1, 1, lines(ps...)})
	}

	var ps [][2]float64
	for i := 0; i < 40; i++ {
		// Small integers: many parallels and exact duplicates.
		ps = append(ps, [2]float64{float64(rng.Intn(5) - 2), float64(rng.Intn(7) - 3)})
	}
	tabs = append(tabs, crossingTable{"parallel-identical", -1, 1, lines(ps...)})

	slopes := []float64{-8, -4, -2, -1, -0.5, 0.5, 1, 2, 4, 8}
	ps = through(0.25, slopes...)
	ps = append(ps, through(0.25, slopes...)...) // every line twice
	ps = append(ps, [2]float64{0, 0.1}, [2]float64{0, -0.1}, [2]float64{1, 0})
	tabs = append(tabs, crossingTable{"concurrent", -1, 1, lines(ps...)})

	for _, dom := range [][2]float64{{1, 2}, {-3, -1}, {-0.75, 1.5}, {1e-300, 1e-290}} {
		lo, hi := dom[0], dom[1]
		ps = nil
		for _, t := range []float64{
			math.Nextafter(lo, math.Inf(-1)), lo, math.Nextafter(lo, math.Inf(1)),
			math.Nextafter(hi, math.Inf(-1)), hi, math.Nextafter(hi, math.Inf(1)),
			(lo + hi) / 2,
		} {
			ps = append(ps, through(t, -4, -1, 0.5, 2, 8)...)
		}
		tabs = append(tabs, crossingTable{"edges", lo, hi, lines(ps...)})
	}

	for _, dom := range [][2]float64{{-1, 1}, {1e-200, 1e-100}, {-1e250, 1e280}} {
		ps = nil
		for i := 0; i < 50; i++ {
			ps = append(ps, [2]float64{magnitude(rng), magnitude(rng)})
		}
		tabs = append(tabs, crossingTable{"magnitudes", dom[0], dom[1], lines(ps...)})
	}

	// Slopes whose difference overflows: the lines cross inside, but
	// the stored hyperplane has no finite root.
	tabs = append(tabs, crossingTable{"overflow", -1, 1, lines(
		[2]float64{0.75 * math.MaxFloat64, 1}, [2]float64{-0.75 * math.MaxFloat64, 2}, [2]float64{1, 0})})

	// From the correlated Lines workload (n = 1 000, seed 1): the lines
	// cross on lo, but the rounded differences put the hyperplane's root
	// strictly inside, so the arrangement has always kept this pair.
	tabs = append(tabs, crossingTable{"rounded-root", -2.014855135818643, -2.005205935808807, lines(
		[2]float64{-0.5905466612093039, -0.869559690316633},
		[2]float64{-0.0021651926127059795, 0.3159437335057378})})
	return tabs
}

// magnitude draws a float log-uniform over [1e-300, 1e300] in
// magnitude, with a random sign.
func magnitude(rng *rand.Rand) float64 {
	v := math.Pow(10, rng.Float64()*600-300)
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

// rankRef is the reference order, all in big.Rat: the sign of
// (f_i(x), i) − (f_j(x), j) at the float x.
func rankRef(fs []funcs.Linear, i, j int, x float64) int {
	w := new(big.Rat).SetFloat64(x)
	if c := fs[i].EvalRat(w).Cmp(fs[j].EvalRat(w)); c != 0 {
		return c
	}
	return cmp.Compare(i, j)
}

// TestPairs1DIsTheExactCrossingSet holds the 1-D enumeration to its
// brute-force definition on adversarial tables: Pairs1DCtx returns
// exactly the pairs, each once, whose order (exact score, then index)
// differs at the floats lo and hi, with today's I < J convention. Each
// carries the hyperplane x − τ: at τ the pair is in its order at hi, and
// at the float below τ in its order at lo. Every pair whose lines cross
// strictly inside is one of them, so a crossing whose rounded
// difference root falls on an edge is never dropped.
func TestPairs1DIsTheExactCrossingSet(t *testing.T) {
	for _, tab := range crossingTables() {
		fs, lo, hi := tab.fs, tab.lo, tab.hi
		dom := geometry.MustBox([]float64{lo}, []float64{hi})
		var want, crossWant [][2]int
		for i := range fs {
			for j := i + 1; j < len(fs); j++ {
				if rankRef(fs, i, j, lo) != rankRef(fs, i, j, hi) {
					want = append(want, [2]int{i, j})
				}
				// The lines' own crossing: strictly opposite orders at
				// lo and hi.
				dLo := fs[i].EvalRat(new(big.Rat).SetFloat64(lo)).Cmp(fs[j].EvalRat(new(big.Rat).SetFloat64(lo)))
				dHi := fs[i].EvalRat(new(big.Rat).SetFloat64(hi)).Cmp(fs[j].EvalRat(new(big.Rat).SetFloat64(hi)))
				if dLo*dHi < 0 {
					crossWant = append(crossWant, [2]int{i, j})
				}
			}
		}

		got, err := Pairs1DCtx(context.Background(), fs, dom)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, func(a, b Intersection) int {
			if a.I != b.I {
				return a.I - b.I
			}
			return a.J - b.J
		})
		gotPairs := make([][2]int, len(got))
		for k, in := range got {
			gotPairs[k] = [2]int{in.I, in.J}
			tau := -in.H.B
			if len(in.H.C) != 1 || in.H.C[0] != 1 || !(tau > lo && tau <= hi) {
				t.Fatalf("%s [%v, %v]: pair (%d,%d) has hyperplane %+v, want x − τ with τ in (lo, hi]", tab.name, lo, hi, in.I, in.J, in.H)
			}
			below := math.Nextafter(tau, math.Inf(-1))
			if rankRef(fs, in.I, in.J, tau) != rankRef(fs, in.I, in.J, hi) || rankRef(fs, in.I, in.J, below) != rankRef(fs, in.I, in.J, lo) {
				t.Fatalf("%s [%v, %v]: pair (%d,%d) changes order elsewhere than at τ = %v", tab.name, lo, hi, in.I, in.J, tau)
			}
		}
		if !slices.Equal(gotPairs, want) {
			t.Errorf("%s [%v, %v]: %d pairs, want the %d whose order differs at lo and hi", tab.name, lo, hi, len(gotPairs), len(want))
		}
		for _, p := range crossWant {
			if _, found := slices.BinarySearchFunc(gotPairs, p, func(a, b [2]int) int {
				if a[0] != b[0] {
					return a[0] - b[0]
				}
				return a[1] - b[1]
			}); !found {
				t.Errorf("%s [%v, %v]: lines %d and %d cross strictly inside, but have no threshold", tab.name, lo, hi, p[0], p[1])
			}
		}
	}
}

// thresholdByKey is threshold with the bisection by key alone, the one
// it had before it halved by value: the reference TestThresholdMatches
// KeyBisection holds it to.
func thresholdByKey(fs []funcs.Linear, a, b int, lo, hi float64) float64 {
	fa, fb := fs[a], fs[b]
	after := func(k int64) bool { return rank(fs, b, a, unkey(k)) < 0 }
	l, h := key(lo), key(hi)
	if t := -(fa.Bias - fb.Bias) / (fa.Coef[0] - fb.Coef[0]); t > lo && t < hi {
		for g, i := key(t), 0; i < 4 && l < g && g < h; i++ {
			if after(g) {
				h, g = g, g-1
			} else {
				l, g = g, g+1
			}
		}
	}
	for uint64(h-l) > 1 {
		m := l + int64(uint64(h-l)/2)
		if after(m) {
			h = m
		} else {
			l = m
		}
	}
	return unkey(h)
}

// TestThresholdMatchesKeyBisection: halving by value before bisecting by
// key finds the same threshold as bisecting by key alone, on 10^5 random
// crossing pairs over domains spanning 0 — ordinary lines, crossings a
// few ulps from 0 or from the domain's lower end, coefficients from
// 2^-1000 to 2^1000 (2^-440 to 2^440 in the main, where CmpAt stays in
// floats), and coefficients and biases whose differences
// overflow, so that the quotient guess is NaN, ±Inf or outside (lo, hi)
// — and the threshold is the first float at which the pair's order is
// its order at hi.
func TestThresholdMatchesKeyBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sgn := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	// mag is a random float in [2^e/2, 2^e·3/2) for e in [lo, hi].
	mag := func(lo, hi int) float64 { return math.Ldexp(0.5+rng.Float64(), lo+rng.Intn(hi-lo+1)) }
	line := func(c, b float64) funcs.Linear { return funcs.Linear{Coef: []float64{c}, Bias: b} }
	around0 := func(lo, hi int) (float64, float64) { return -mag(lo, hi), mag(lo, hi) }
	wide := func(e int) (funcs.Linear, funcs.Linear, float64, float64) {
		lo, hi := around0(-e, e)
		return line(sgn()*mag(-e, e), sgn()*mag(-e, e)), line(sgn()*mag(-e, e), sgn()*mag(-e, e)), lo, hi
	}
	kinds := []func() (f, g funcs.Linear, lo, hi float64){
		func() (funcs.Linear, funcs.Linear, float64, float64) { // ordinary lines
			lo, hi := around0(-10, 10)
			return line(rng.NormFloat64(), rng.NormFloat64()), line(rng.NormFloat64(), rng.NormFloat64()), lo, hi
		},
		func() (funcs.Linear, funcs.Linear, float64, float64) { // crossing near 0
			lo, hi := around0(-4, 4)
			return line(rng.NormFloat64(), sgn()*mag(-1000, -20)), line(rng.NormFloat64(), sgn()*mag(-1000, -20)), lo, hi
		},
		func() (funcs.Linear, funcs.Linear, float64, float64) { // 2^-440 to 2^440
			return wide(440)
		},
		func() (funcs.Linear, funcs.Linear, float64, float64) { // crossing a few ulps above lo
			tau := -mag(-30, 3)
			c1, c2 := rng.NormFloat64(), rng.NormFloat64()
			lo := tau
			for k := rng.Intn(4); k >= 0; k-- {
				lo = math.Nextafter(lo, math.Inf(-1))
			}
			return line(c1, float64(-c1*tau)), line(c2, float64(-c2*tau)), lo, mag(-3, 3)
		},
		func() (funcs.Linear, funcs.Linear, float64, float64) { // 2^-1000 to 2^1000
			return wide(1000)
		},
		func() (funcs.Linear, funcs.Linear, float64, float64) { // both differences overflow: NaN
			c, b := mag(1023, 1023), mag(1023, 1023)
			lo, hi := around0(2, 3)
			return line(c, b), line(-mag(1023, 1023), -mag(1023, 1023)), lo, hi
		},
		func() (funcs.Linear, funcs.Linear, float64, float64) { // the bias difference overflows: ±Inf
			s := sgn()
			lo, hi := around0(10, 12)
			return line(mag(1014, 1016), s*mag(1023, 1023)), line(-mag(1014, 1016), -s*mag(1023, 1023)), lo, hi
		},
	}
	var quotients [4]int // NaN, ±Inf, outside (lo, hi), inside
	pairs := 0
	for i := 0; pairs < 100000; i++ {
		if i > 1000000 {
			t.Fatalf("only %d crossing pairs in %d draws", pairs, i)
		}
		// The last three kinds compare in big.Rat throughout: one draw in
		// 50 each.
		kind := kinds[i%4]
		if k := i % 100; k >= 97 {
			kind = kinds[k-93]
		}
		f, g, lo, hi := kind()
		fs := []funcs.Linear{f, g}
		a, b := 0, 1
		if rank(fs, 0, 1, lo) > 0 {
			a, b = 1, 0
		}
		if rank(fs, a, b, hi) < 0 {
			continue // the order does not change in [lo, hi]
		}
		pairs++
		switch q := -(fs[a].Bias - fs[b].Bias) / (fs[a].Coef[0] - fs[b].Coef[0]); {
		case math.IsNaN(q):
			quotients[0]++
		case math.IsInf(q, 0):
			quotients[1]++
		case !(q > lo && q < hi):
			quotients[2]++
		default:
			quotients[3]++
		}
		tau, want := threshold(fs, a, b, lo, hi), thresholdByKey(fs, a, b, lo, hi)
		if math.Float64bits(tau) != math.Float64bits(want) {
			t.Fatalf("lines %v and %v on [%v, %v]: threshold %v, by key %v", fs[a], fs[b], lo, hi, tau, want)
		}
		if prev := math.Nextafter(tau, math.Inf(-1)); rank(fs, b, a, tau) > 0 || (prev > lo && rank(fs, b, a, prev) < 0) {
			t.Fatalf("lines %v and %v on [%v, %v]: %v is not the first float of the order at hi", fs[a], fs[b], lo, hi, tau)
		}
	}
	t.Logf("%d pairs; quotients NaN %d, ±Inf %d, outside (lo, hi) %d, inside %d", pairs, quotients[0], quotients[1], quotients[2], quotients[3])
	for k, c := range quotients {
		if c < 100 {
			t.Errorf("quotient class %d has %d pairs, want at least 100", k, c)
		}
	}
}

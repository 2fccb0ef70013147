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

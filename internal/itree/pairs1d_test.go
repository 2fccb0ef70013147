package itree

import (
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

// rootInsideRef is the reference membership rule, all in big.Rat: the
// pair's hyperplane (the rounded differences an Intersection stores)
// has a breakpoint strictly inside (lo, hi).
func rootInsideRef(fs []funcs.Linear, i, j int, lo, hi float64) (geometry.Hyperplane, bool) {
	h := funcs.Diff(fs[i], fs[j])
	t, ok := Breakpoint1D(h)
	return h, ok && t.Cmp(new(big.Rat).SetFloat64(lo)) > 0 && t.Cmp(new(big.Rat).SetFloat64(hi)) < 0
}

// TestPairs1DIsTheExactCrossingSet holds the 1-D enumeration to its
// brute-force definition on adversarial tables: Pairs1DCtx returns
// exactly the pairs, each once, whose hyperplane root lies strictly
// inside the domain, with today's I < J, f_I − f_J convention, and
// DirtyPairs1D the same pairs among those touching a dirty index, in
// (i, j) order. Underneath, the merge-sort enumerator at the domain
// edges returns exactly the pairs whose lines cross strictly inside, so
// a pair meeting at an edge, parallel or identical is never one.
func TestPairs1DIsTheExactCrossingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tab := range crossingTables() {
		fs, lo, hi := tab.fs, tab.lo, tab.hi
		dom := geometry.MustBox([]float64{lo}, []float64{hi})
		var want []Intersection
		var crossWant [][2]int
		for i := range fs {
			for j := i + 1; j < len(fs); j++ {
				if h, ok := rootInsideRef(fs, i, j, lo, hi); ok {
					want = append(want, Intersection{I: i, J: j, H: h})
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
		samePairs(t, tab.name+": Pairs1DCtx", got, want)

		inv, err := inversions1D(context.Background(), fs, funcs.AtFloat(lo), funcs.AtFloat(hi))
		if err != nil {
			t.Fatal(err)
		}
		gotCross := make([][2]int, len(inv))
		for k, p := range inv {
			gotCross[k] = [2]int{min(p[0], p[1]), max(p[0], p[1])}
		}
		slices.SortFunc(gotCross, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		if !slices.Equal(gotCross, crossWant) {
			t.Errorf("%s [%v, %v]: %d inversions, want the %d strict crossings", tab.name, lo, hi, len(gotCross), len(crossWant))
		}

		dirty := make([]bool, len(fs))
		for i := range dirty {
			dirty[i] = rng.Intn(4) == 0
		}
		var dirtyWant []Intersection
		for _, in := range want {
			if dirty[in.I] || dirty[in.J] {
				dirtyWant = append(dirtyWant, in)
			}
		}
		gotDirty, err := DirtyPairs1D(fs, dirty, dom)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, tab.name+": DirtyPairs1D", gotDirty, dirtyWant)
	}
}

// samePairs fails unless got and want list the same pairs in the same
// order with bit-identical hyperplanes.
func samePairs(t *testing.T, what string, got, want []Intersection) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d pairs, want %d", what, len(got), len(want))
		return
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.I != w.I || g.J != w.J || len(g.H.C) != 1 ||
			math.Float64bits(g.H.C[0]) != math.Float64bits(w.H.C[0]) || math.Float64bits(g.H.B) != math.Float64bits(w.H.B) {
			t.Errorf("%s: pair %d is %+v, want %+v", what, k, g, w)
			return
		}
	}
}

package itree

import (
	"math/rand"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

func TestSortAt(t *testing.T) {
	fs := []funcs.Linear{
		{Index: 0, Coef: []float64{1}, Bias: 0},  // x
		{Index: 1, Coef: []float64{-1}, Bias: 4}, // 4-x
		{Index: 2, Coef: []float64{0}, Bias: 1},  // 1
	}
	perm := SortAt(fs, geometry.Point{0}) // scores 0, 4, 1
	want := []int{0, 2, 1}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("SortAt = %v, want %v", perm, want)
		}
	}
	perm = SortAt(fs, geometry.Point{10}) // scores 10, -6, 1
	want = []int{1, 2, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("SortAt(10) = %v, want %v", perm, want)
		}
	}
}

func TestSortAtTieBreaksByIndex(t *testing.T) {
	fs := []funcs.Linear{
		{Index: 0, Coef: []float64{0}, Bias: 5},
		{Index: 1, Coef: []float64{0}, Bias: 5},
		{Index: 2, Coef: []float64{0}, Bias: 5},
	}
	perm := SortAt(fs, geometry.Point{1})
	for i, p := range perm {
		if p != i {
			t.Fatalf("tie-break order = %v, want identity", perm)
		}
	}
}

func TestSortAtExactMatchesSortAtAwayFromBreakpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		fs := make([]funcs.Linear, n)
		for i := range fs {
			fs[i] = funcs.Linear{Index: i, Coef: []float64{rng.NormFloat64()}, Bias: rng.NormFloat64()}
		}
		xf := float64(rng.Intn(1024)-512) / 256
		pRat := SortAtExact(fs, xf)
		pFlt := SortAt(fs, geometry.Point{xf})
		for i := range pRat {
			if pRat[i] != pFlt[i] {
				// Scores could genuinely tie only with probability ~0;
				// verify before failing.
				a, b := fs[pRat[i]], fs[pFlt[i]]
				if a.Eval(geometry.Point{xf}) != b.Eval(geometry.Point{xf}) {
					t.Fatalf("trial %d: rat=%v float=%v differ at %d", trial, pRat, pFlt, i)
				}
			}
		}
	}
}

func TestInversePerm(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := InversePerm(perm)
	for pos, idx := range perm {
		if inv[idx] != pos {
			t.Fatalf("inv[%d] = %d, want %d", idx, inv[idx], pos)
		}
	}
}

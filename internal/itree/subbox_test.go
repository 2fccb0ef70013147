package itree

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// TestPairs1DOnCutInNeitherSubBox pins the boundary rule the shard
// subsystem depends on: an intersection whose breakpoint lies exactly on
// a cut is strictly inside neither sub-box, so neither shard's
// enumeration lists it, while the whole domain's does.
func TestPairs1DOnCutInNeitherSubBox(t *testing.T) {
	// f0 = x and f1 = -x + 4 cross at exactly x = 2, the cut.
	fs := []funcs.Linear{
		{Coef: []float64{1}, Bias: 0},
		{Coef: []float64{-1}, Bias: 4},
	}
	whole, err := Pairs1DCtx(context.Background(), fs, geometry.MustBox([]float64{0}, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 1 || whole[0].I != 0 || whole[0].J != 1 {
		t.Fatalf("whole domain lists %v, want the one pair (0,1)", whole)
	}
	for _, box := range []geometry.Box{
		geometry.MustBox([]float64{0}, []float64{2}),
		geometry.MustBox([]float64{2}, []float64{4}),
	} {
		got, err := Pairs1DCtx(context.Background(), fs, box)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("sub-box %v-%v lists the on-cut intersection: %v", box.Lo, box.Hi, got)
		}
	}
}

// TestPairs1DSubBoxesTileTheDomain checks, over random function sets
// with engineered crossings exactly on the cuts, that the sub-boxes'
// enumerations tile the whole domain's: the per-sub-box lists are
// disjoint, every exact breakpoint lies strictly inside its sub-box, and
// the lists' union plus the pairs crossing exactly on a cut is the
// whole-domain list — no drop, no double count.
func TestPairs1DSubBoxesTileTheDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	cuts := []float64{-0.5, 0, 0.25}
	edges := append(append([]float64{dom.Lo[0]}, cuts...), dom.Hi[0])
	for trial := 0; trial < 20; trial++ {
		fs := make([]funcs.Linear, 40)
		for i := range fs {
			fs[i] = funcs.Linear{
				Coef: []float64{rng.NormFloat64()},
				Bias: rng.NormFloat64(),
			}
		}
		// A few engineered crossings exactly on cuts: f and its
		// reflection around x = c cross precisely at c.
		for _, c := range cuts {
			fs = append(fs,
				funcs.Linear{Coef: []float64{1}, Bias: -c},
				funcs.Linear{Coef: []float64{-1}, Bias: c})
		}

		type key struct{ i, j int }
		seen := make(map[key]int)
		for k := 0; k+1 < len(edges); k++ {
			box := geometry.MustBox([]float64{edges[k]}, []float64{edges[k+1]})
			own, err := Pairs1DCtx(context.Background(), fs, box)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := new(big.Rat).SetFloat64(edges[k]), new(big.Rat).SetFloat64(edges[k+1])
			for _, in := range own {
				kk := key{in.I, in.J}
				if prev, dup := seen[kk]; dup {
					t.Fatalf("pair (%d,%d) listed by sub-boxes %d and %d", in.I, in.J, prev, k)
				}
				seen[kk] = k
				bp, ok := Breakpoint1D(in.H)
				if !ok {
					t.Fatalf("sub-box %d pair (%d,%d) has no breakpoint", k, in.I, in.J)
				}
				if bp.Cmp(lo) <= 0 || bp.Cmp(hi) >= 0 {
					t.Errorf("sub-box %d pair (%d,%d): breakpoint %v not strictly inside (%v, %v)", k, in.I, in.J, bp, edges[k], edges[k+1])
				}
			}
		}

		whole, err := Pairs1DCtx(context.Background(), fs, dom)
		if err != nil {
			t.Fatal(err)
		}
		onCut := 0
		for _, in := range whole {
			if _, ok := seen[key{in.I, in.J}]; ok {
				continue
			}
			bp, _ := Breakpoint1D(in.H)
			if !onACut(bp, cuts) {
				t.Fatalf("pair (%d,%d) at %v dropped from every sub-box", in.I, in.J, bp)
			}
			onCut++
		}
		if onCut < len(cuts) {
			t.Fatalf("%d whole-domain pairs on a cut, want at least the %d engineered", onCut, len(cuts))
		}
		if len(seen)+onCut != len(whole) {
			t.Fatalf("sub-boxes list %d pairs and %d cross on a cut; the whole domain lists %d", len(seen), onCut, len(whole))
		}
	}
}

// onACut reports whether the exact breakpoint bp equals one of the cuts.
func onACut(bp *big.Rat, cuts []float64) bool {
	for _, c := range cuts {
		if bp.Cmp(new(big.Rat).SetFloat64(c)) == 0 {
			return true
		}
	}
	return false
}

// TestPairs1DCtxCanceled: a pre-canceled context aborts the enumeration
// and surfaces context.Canceled.
func TestPairs1DCtxCanceled(t *testing.T) {
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	fs := make([]funcs.Linear, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range fs {
		fs[i] = funcs.Linear{Index: i, Coef: []float64{rng.NormFloat64()}, Bias: rng.NormFloat64()}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Pairs1DCtx(ctx, fs, dom); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

package itree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// shardBoxes returns the float domains a set's shards partition for the
// cuts of dom: [e_k, the float below e_{k+1}] for every shard but the
// last, which keeps dom's upper edge (core.Params.OpenHi). On the float
// line they tile dom, and a cut belongs to the shard on its right, as
// shard.Plan routes it.
func shardBoxes(dom geometry.Box, cuts []float64) []geometry.Box {
	edges := append(append([]float64{dom.Lo[0]}, cuts...), dom.Hi[0])
	boxes := make([]geometry.Box, len(edges)-1)
	for k := range boxes {
		hi := edges[k+1]
		if k < len(boxes)-1 {
			hi = math.Nextafter(hi, math.Inf(-1))
		}
		boxes[k] = geometry.MustBox([]float64{edges[k]}, []float64{hi})
	}
	return boxes
}

// TestPairs1DOnCutInNeitherSubBox pins the boundary rule the shard
// subsystem depends on: a pair whose threshold is exactly a cut changes
// order at the cut itself, so it is in one order throughout each
// shard's floats and neither shard's enumeration lists it, while the
// whole domain's does. A pair whose lines cross on the cut but whose
// tie there keeps the left order has its threshold one float right of
// the cut, in the right shard.
func TestPairs1DOnCutInNeitherSubBox(t *testing.T) {
	dom := geometry.MustBox([]float64{0}, []float64{4})
	boxes := shardBoxes(dom, []float64{2})
	// f0 = -x + 4 and f1 = x cross at exactly x = 2, the cut: f1 ranks
	// first below it, f0 from it on (a tie goes to the lower index).
	fs := []funcs.Linear{
		{Index: 0, Coef: []float64{-1}, Bias: 4},
		{Index: 1, Coef: []float64{1}, Bias: 0},
	}
	whole, err := Pairs1DCtx(context.Background(), fs, dom)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 1 || whole[0].I != 0 || whole[0].J != 1 || -whole[0].H.B != 2 {
		t.Fatalf("whole domain lists %v, want the one pair (0,1) at τ = 2", whole)
	}
	for _, box := range boxes {
		got, err := Pairs1DCtx(context.Background(), fs, box)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("sub-box %v-%v lists the on-cut threshold: %v", box.Lo, box.Hi, got)
		}
	}

	fs[0], fs[1] = funcs.Linear{Index: 0, Coef: []float64{1}, Bias: 0}, funcs.Linear{Index: 1, Coef: []float64{-1}, Bias: 4}
	next := math.Nextafter(2, 3)
	for k, box := range append([]geometry.Box{dom}, boxes...) {
		got, err := Pairs1DCtx(context.Background(), fs, box)
		if err != nil {
			t.Fatal(err)
		}
		if want := k != 1; (len(got) == 1 && -got[0].H.B == next) != want || len(got) > 1 {
			t.Errorf("box %v-%v lists %v; want the pair at τ = %v: %v", box.Lo, box.Hi, got, next, want)
		}
	}
}

// TestPairs1DSubBoxesTileTheDomain checks, over random function sets
// with engineered crossings exactly on the cuts, that the shards'
// enumerations tile the whole domain's: the per-shard lists are
// disjoint, every threshold lies in its shard's floats and equals the
// whole domain's, and the lists' union plus the pairs whose threshold is
// a cut is the whole-domain list — no drop, no double count.
func TestPairs1DSubBoxesTileTheDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	cuts := []float64{-0.5, 0, 0.25}
	for trial := 0; trial < 20; trial++ {
		fs := make([]funcs.Linear, 40)
		for i := range fs {
			fs[i] = funcs.Linear{
				Coef: []float64{rng.NormFloat64()},
				Bias: rng.NormFloat64(),
			}
		}
		// A few engineered crossings exactly on cuts: f and its
		// reflection around x = c cross precisely at c, the falling
		// line at the lower index, so the pair's order changes at c
		// itself.
		for _, c := range cuts {
			fs = append(fs,
				funcs.Linear{Coef: []float64{-1}, Bias: c},
				funcs.Linear{Coef: []float64{1}, Bias: -c})
		}
		for i := range fs {
			fs[i].Index = i
		}

		whole, err := Pairs1DCtx(context.Background(), fs, dom)
		if err != nil {
			t.Fatal(err)
		}
		type key struct{ i, j int }
		tau := make(map[key]float64)
		for _, in := range whole {
			tau[key{in.I, in.J}] = -in.H.B
		}
		seen := make(map[key]int)
		for k, box := range shardBoxes(dom, cuts) {
			own, err := Pairs1DCtx(context.Background(), fs, box)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range own {
				kk := key{in.I, in.J}
				if prev, dup := seen[kk]; dup {
					t.Fatalf("pair (%d,%d) listed by sub-boxes %d and %d", in.I, in.J, prev, k)
				}
				seen[kk] = k
				if got := -in.H.B; got != tau[kk] || !(got > box.Lo[0] && got <= box.Hi[0]) {
					t.Errorf("sub-box %d pair (%d,%d): threshold %v, whole domain's %v, sub-box (%v, %v]", k, in.I, in.J, got, tau[kk], box.Lo[0], box.Hi[0])
				}
			}
		}
		onCut := 0
		for _, in := range whole {
			if _, ok := seen[key{in.I, in.J}]; ok {
				continue
			}
			if !slices.Contains(cuts, -in.H.B) {
				t.Fatalf("pair (%d,%d) at %v dropped from every sub-box", in.I, in.J, -in.H.B)
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

package sweep

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"aqverify/internal/funcs"
)

// arrangement computes, for a set of lines over [lo,hi], the sorted
// distinct interior breakpoints, per-boundary crossing pairs, and exact
// witnesses — a miniature of what core/mesh derive from their structures.
func arrangement(fs []funcs.Linear, lo, hi *big.Rat) (witnesses []funcs.At, groups [][]Pair) {
	type bp struct {
		t    *big.Rat
		pair Pair
	}
	var bps []bp
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			dc := new(big.Rat).Sub(ratOf(fs[i].Coef[0]), ratOf(fs[j].Coef[0]))
			if dc.Sign() == 0 {
				continue
			}
			db := new(big.Rat).Sub(ratOf(fs[j].Bias), ratOf(fs[i].Bias))
			t := new(big.Rat).Quo(db, dc)
			if t.Cmp(lo) <= 0 || t.Cmp(hi) >= 0 {
				continue
			}
			bps = append(bps, bp{t: t, pair: Pair{I: i, J: j}})
		}
	}
	sort.Slice(bps, func(a, b int) bool { return bps[a].t.Cmp(bps[b].t) < 0 })
	// Distinct boundaries with grouped pairs.
	var bounds []*big.Rat
	for _, b := range bps {
		if len(bounds) == 0 || bounds[len(bounds)-1].Cmp(b.t) != 0 {
			bounds = append(bounds, b.t)
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], b.pair)
	}
	// Witness of subdomain k: midpoint of its interval.
	edges := append([]*big.Rat{lo}, bounds...)
	edges = append(edges, hi)
	for k := 0; k+1 < len(edges); k++ {
		m := new(big.Rat).Add(edges[k], edges[k+1])
		witnesses = append(witnesses, funcs.NewAt(m.Quo(m, big.NewRat(2, 1))))
	}
	return witnesses, groups
}

func ratOf(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }

// Compute is ComputeCtx with one worker and no cancellation: the serial
// sweep the batteries below check and compare against.
func Compute(fs []funcs.Linear, witnesses []funcs.At, groups [][]Pair) (Plan, error) {
	return ComputeCtx(context.Background(), fs, witnesses, groups, 1)
}

func randLines(n int, seed int64) []funcs.Linear {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]funcs.Linear, n)
	for i := range fs {
		fs[i] = funcs.Linear{
			Index: i, RecordID: uint64(i + 1),
			Coef: []float64{rng.NormFloat64()},
			Bias: rng.NormFloat64(),
		}
	}
	return fs
}

func TestComputeMatchesDirectSort(t *testing.T) {
	lo, hi := big.NewRat(-2, 1), big.NewRat(2, 1)
	for seed := int64(0); seed < 10; seed++ {
		fs := randLines(12, seed)
		witnesses, groups := arrangement(fs, lo, hi)
		plan, err := Compute(fs, witnesses, groups)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if plan.NumSubdomains() != len(witnesses) {
			t.Fatalf("seed %d: plan covers %d subdomains, want %d", seed, plan.NumSubdomains(), len(witnesses))
		}
		// Replaying the plan must match a fresh exact sort at every
		// witness.
		perm := append([]int(nil), plan.BasePerm...)
		for k, w := range witnesses {
			if k > 0 {
				for _, pos := range plan.Swaps[k-1] {
					perm[pos], perm[pos+1] = perm[pos+1], perm[pos]
				}
			}
			want := funcs.SortAtRat(fs, w)
			for i := range want {
				if perm[i] != want[i] {
					t.Fatalf("seed %d: subdomain %d order diverges at position %d", seed, k, i)
				}
			}
		}
		// Total swaps = total crossing pairs.
		pairs := 0
		for _, g := range groups {
			pairs += len(g)
		}
		if plan.TotalSwaps() != pairs {
			t.Errorf("seed %d: %d swaps for %d crossing pairs", seed, plan.TotalSwaps(), pairs)
		}
	}
}

func TestComputePencilDegenerate(t *testing.T) {
	// Four lines through the origin: a single boundary where all six
	// pairs cross at once and the whole order reverses.
	fs := []funcs.Linear{
		{Index: 0, Coef: []float64{1}, Bias: 0},
		{Index: 1, Coef: []float64{2}, Bias: 0},
		{Index: 2, Coef: []float64{-1}, Bias: 0},
		{Index: 3, Coef: []float64{0.5}, Bias: 0},
	}
	lo, hi := big.NewRat(-1, 1), big.NewRat(1, 1)
	witnesses, groups := arrangement(fs, lo, hi)
	if len(witnesses) != 2 || len(groups) != 1 || len(groups[0]) != 6 {
		t.Fatalf("arrangement: %d subdomains, groups %v", len(witnesses), groups)
	}
	plan, err := Compute(fs, witnesses, groups)
	if err != nil {
		t.Fatal(err)
	}
	perm := append([]int(nil), plan.BasePerm...)
	for _, pos := range plan.Swaps[0] {
		perm[pos], perm[pos+1] = perm[pos+1], perm[pos]
	}
	want := funcs.SortAtRat(fs, witnesses[1])
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("pencil crossing produced wrong order: got %v want %v", perm, want)
		}
	}
	// A full reversal of a 4-block needs 6 transpositions.
	if plan.TotalSwaps() != 6 {
		t.Errorf("TotalSwaps = %d, want 6", plan.TotalSwaps())
	}
}

func TestComputeValidation(t *testing.T) {
	fs := randLines(3, 1)
	if _, err := Compute(fs, nil, nil); err == nil {
		t.Error("no subdomains accepted")
	}
	w := []funcs.At{funcs.NewAt(big.NewRat(0, 1)), funcs.NewAt(big.NewRat(1, 1))}
	if _, err := Compute(fs, w, nil); err == nil {
		t.Error("missing boundary groups accepted")
	}
	if _, err := Compute(fs, w, [][]Pair{{}}); err == nil {
		t.Error("empty boundary group accepted")
	}
	if _, err := Compute(fs, w, [][]Pair{{{I: 0, J: 99}}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestCursorRandomWalk(t *testing.T) {
	lo, hi := big.NewRat(-1, 1), big.NewRat(1, 1)
	fs := randLines(15, 3)
	witnesses, groups := arrangement(fs, lo, hi)
	plan, err := Compute(fs, witnesses, groups)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewCursor(plan)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		id := rng.Intn(plan.NumSubdomains())
		got, err := cur.PermAt(id)
		if err != nil {
			t.Fatal(err)
		}
		want := funcs.SortAtRat(fs, witnesses[id])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: cursor perm at %d wrong", trial, id)
			}
		}
	}
	if _, err := cur.PermAt(-1); err == nil {
		t.Error("negative subdomain accepted")
	}
	if _, err := cur.PermAt(plan.NumSubdomains()); err == nil {
		t.Error("out-of-range subdomain accepted")
	}
}

// TestComputeCtxWorkersIdentity is the byte-identity contract of the
// chunked sweep: for every worker count the plan — base permutation and
// every boundary's swap list, in order — must equal the serial sweep's
// exactly, because FMH derivation replays the swaps by position.
func TestComputeCtxWorkersIdentity(t *testing.T) {
	for _, n := range []int{12, 60, 150} {
		fs := randLines(n, int64(n))
		witnesses, groups := arrangement(fs, ratOf(-1), ratOf(1))
		serial, err := Compute(fs, witnesses, groups)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 7, 32} {
			par, err := ComputeCtx(context.Background(), fs, witnesses, groups, workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !equalPerm(par.BasePerm, serial.BasePerm) {
				t.Fatalf("n=%d workers=%d: base permutations differ", n, workers)
			}
			if len(par.Swaps) != len(serial.Swaps) {
				t.Fatalf("n=%d workers=%d: %d boundaries, want %d", n, workers, len(par.Swaps), len(serial.Swaps))
			}
			for k := range serial.Swaps {
				if !equalPerm(par.Swaps[k], serial.Swaps[k]) {
					t.Fatalf("n=%d workers=%d: swap list %d differs: %v vs %v",
						n, workers, k, par.Swaps[k], serial.Swaps[k])
				}
			}
		}
	}
}

// TestComputeCtxSeedInvariant pins the decomposition ComputeCtx relies
// on: the swept permutation entering any subdomain equals the exact
// sorted order at that subdomain's witness, so a chunk may seed itself
// with one sort instead of sweeping from the left edge.
func TestComputeCtxSeedInvariant(t *testing.T) {
	fs := randLines(80, 4)
	witnesses, groups := arrangement(fs, ratOf(-1), ratOf(1))
	plan, err := Compute(fs, witnesses, groups)
	if err != nil {
		t.Fatal(err)
	}
	cursor := NewCursor(plan)
	for k := range witnesses {
		swept, err := cursor.PermAt(k)
		if err != nil {
			t.Fatal(err)
		}
		if sorted := funcs.SortAtRat(fs, witnesses[k]); !equalPerm(swept, sorted) {
			t.Fatalf("subdomain %d: swept permutation disagrees with the exact sorted order", k)
		}
	}
}

// TestComputeCtxCanceled: a pre-canceled context aborts the sweep and
// surfaces context.Canceled.
func TestComputeCtxCanceled(t *testing.T) {
	fs := randLines(40, 6)
	witnesses, groups := arrangement(fs, ratOf(-1), ratOf(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeCtx(ctx, fs, witnesses, groups, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

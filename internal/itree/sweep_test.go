package itree

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/workload"
)

// arrangement1D builds the arrangement of fs over [lo, hi] the way the
// owner does: one Pairs1DCtx enumeration, grouped by threshold.
func arrangement1D(t testing.TB, fs []funcs.Linear, lo, hi float64) (*Space1D, *Arrangement1D) {
	t.Helper()
	dom := geometry.MustBox([]float64{lo}, []float64{hi})
	space, err := NewSpace1D(dom)
	if err != nil {
		t.Fatal(err)
	}
	inters, err := Pairs1DCtx(context.Background(), fs, dom)
	if err != nil {
		t.Fatal(err)
	}
	return space, NewArrangement1D(space, inters)
}

// sweepOrders runs the sweep and returns a copy of every gap's order
// and the total swap count, failing the test if the gaps arrive out of
// order or the walk fails.
func sweepOrders(t *testing.T, fs []funcs.Linear, arr *Arrangement1D) ([][]int, int) {
	t.Helper()
	var orders [][]int
	total := 0
	err := arr.Sweep(context.Background(), fs, func(g int, perm, swaps []int) error {
		if g != len(orders) {
			t.Fatalf("visited gap %d after %d gaps", g, len(orders))
		}
		orders = append(orders, slices.Clone(perm))
		total += len(swaps)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orders) != arr.NumBreakpoints()+1 {
		t.Fatalf("visited %d gaps, want %d", len(orders), arr.NumBreakpoints()+1)
	}
	return orders, total
}

// checkSweepAgainstSort sweeps the arrangement of fs over [-2, 2] and
// checks that every gap's swept order equals a fresh exact sort at the
// gap's witness, and that every crossing pair costs one transposition.
func checkSweepAgainstSort(t *testing.T, n int, seed int64) {
	t.Helper()
	fs := randomLines(n, seed)
	_, arr := arrangement1D(t, fs, -2, 2)
	orders, total := sweepOrders(t, fs, arr)
	for g, got := range orders {
		if want := SortAtExact(fs, arr.Gap(g).Witness()); !slices.Equal(got, want) {
			t.Fatalf("n=%d seed %d: gap %d's swept order disagrees with the exact sort", n, seed, g)
		}
	}
	pairs := 0
	for _, grp := range arr.Groups {
		pairs += len(grp.Members)
	}
	if total != pairs {
		t.Errorf("n=%d seed %d: %d swaps for %d crossing pairs", n, seed, total, pairs)
	}
}

// TestSweepMatchesDirectSort: on small random tables that mix parallel
// families and lines concurrent through one point with general ones,
// the swept order of every gap is the exact sort at its witness.
func TestSweepMatchesDirectSort(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		checkSweepAgainstSort(t, 12, seed)
	}
}

// TestSweepLargeTableMatchesDirectSort: the same check on 80-line
// tables, where gaps far from the left edge are reached only after
// hundreds of transpositions, so a drift in the incremental order
// would surface as a disagreement with the fresh sort.
func TestSweepLargeTableMatchesDirectSort(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		checkSweepAgainstSort(t, 80, seed)
	}
}

// TestSweepPencilDegenerate: four lines through the origin, where all
// six pairs tie and the whole order reverses. At 0 itself the ties go
// by index, so the two pairs already in index order at 0 change order
// there and the other four one float later: two boundaries, the float 0
// a leaf of its own, and six transpositions in all.
func TestSweepPencilDegenerate(t *testing.T) {
	fs := lines([2]float64{1, 0}, [2]float64{2, 0}, [2]float64{-1, 0}, [2]float64{0.5, 0})
	_, arr := arrangement1D(t, fs, -1, 1)
	if len(arr.Groups) != 2 || arr.Groups[0].T != 0 || len(arr.Groups[0].Members) != 2 ||
		arr.Groups[1].T != math.Nextafter(0, 1) || len(arr.Groups[1].Members) != 4 {
		t.Fatalf("arrangement: %d groups, want 2 members at 0 and 4 one float later", len(arr.Groups))
	}
	orders, total := sweepOrders(t, fs, arr)
	for g, want := range [][]int{{1, 0, 3, 2}, {0, 1, 2, 3}, {2, 3, 0, 1}} {
		if !slices.Equal(orders[g], want) {
			t.Fatalf("gap %d holds %v, want %v", g, orders[g], want)
		}
	}
	if total != 6 {
		t.Errorf("%d swaps, want 6", total)
	}
}

// TestSweepFinalOrderCheck: two disjoint pairs cross at x = 0. With one
// of them dropped from the group, every remaining member is still
// ordered after the boundary, so only the final-order check can see
// that the dropped pair was never swapped.
func TestSweepFinalOrderCheck(t *testing.T) {
	fs := lines([2]float64{1, 10}, [2]float64{-1, 10}, [2]float64{1, -10}, [2]float64{-1, -10})
	_, arr := arrangement1D(t, fs, -1, 1)
	if len(arr.Groups) != 1 || len(arr.Groups[0].Members) != 2 {
		t.Fatalf("arrangement: %d groups, want one of 2 members", len(arr.Groups))
	}
	arr.Groups[0].Members = arr.Groups[0].Members[1:]
	err := arr.Sweep(context.Background(), fs, func(int, []int, []int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "leaving gap") {
		t.Fatalf("err = %v, want the final-order check's failure", err)
	}
}

// TestSweepCanceled: a pre-cancelled context stops the walk before any
// gap is visited and surfaces context.Canceled.
func TestSweepCanceled(t *testing.T) {
	fs := randomLines(40, 6)
	_, arr := arrangement1D(t, fs, -2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := arr.Sweep(ctx, fs, func(int, []int, []int) error {
		t.Fatal("visited a gap under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepAllocsPerBoundary pins what the sweep allocates on the
// benchmark's table (2 000 lines, seed 1): nothing per comparison.
// Comparisons decide in float64 (funcs.CmpAt, its exact stage included)
// at float witnesses, so a big.Rat back on the common path — four of
// them per comparison — fails here by name.
func TestSweepAllocsPerBoundary(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := funcs.AffineLine(0, 1).InterpretTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	_, arr := arrangement1D(t, fs, dom.Lo[0], dom.Hi[0])
	visit := func(int, []int, []int) error { return nil }
	allocs := testing.AllocsPerRun(1, func() {
		if err := arr.Sweep(context.Background(), fs, visit); err != nil {
			t.Fatal(err)
		}
	})
	perBoundary := allocs / float64(len(arr.Groups))
	t.Logf("%d boundaries, %.0f allocations, %.3f per boundary", len(arr.Groups), allocs, perBoundary)
	if perBoundary > 2.5 {
		t.Errorf("sweep allocates %.3f times per boundary, want at most 2.5", perBoundary)
	}
}

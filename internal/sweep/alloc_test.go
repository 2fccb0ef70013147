package sweep_test

import (
	"context"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/itree"
	"aqverify/internal/sweep"
	"aqverify/internal/workload"
)

// TestComputeCtxAllocsPerBoundary pins what the sweep allocates on the
// benchmark's table (2 000 lines, seed 1): a boundary costs its swap
// list and the list of its involved positions, and nothing per
// comparison. Comparisons decide in float64 (funcs.CmpAt) and the
// witnesses are floats wherever a gap allows, so a big.Rat back on the
// common path — four of them per comparison — fails here by name.
func TestComputeCtxAllocsPerBoundary(t *testing.T) {
	ctx := context.Background()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := funcs.AffineLine(0, 1).InterpretTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	inters, err := itree.Pairs1DCtx(ctx, fs, dom)
	if err != nil {
		t.Fatal(err)
	}
	space, err := itree.NewSpace1D(dom)
	if err != nil {
		t.Fatal(err)
	}
	arr := itree.NewArrangement1D(space, inters, 0)
	tree := itree.BuildCanonical1D(space, arr)
	witnesses := make([]funcs.At, len(tree.Subs))
	for k, sub := range tree.Subs {
		witnesses[k] = space.WitnessAt(sub.Region)
	}
	groups := make([][]sweep.Pair, len(arr.Groups))
	for k, g := range arr.Groups {
		for _, in := range g.Members {
			groups[k] = append(groups[k], sweep.Pair{I: in.I, J: in.J})
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := sweep.ComputeCtx(ctx, fs, witnesses, groups, 1); err != nil {
			t.Fatal(err)
		}
	})
	perBoundary := allocs / float64(len(groups))
	t.Logf("%d boundaries, %.0f allocations, %.3f per boundary", len(groups), allocs, perBoundary)
	if perBoundary > 2.5 {
		t.Errorf("sweep allocates %.3f times per boundary, want at most 2.5 (its swap list and its positions)", perBoundary)
	}
}

package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// TestUnfusedOnHyperplane2D is the regression row for fused
// multiply-add: x = (0.7, 0.7) lies exactly on the hyperplane between
// records (0.5, 0.4) and (0.4, 0.5), where a fused evaluation — one
// rounding for c₁·x₁ + fl(c₀·x₀), as arm64, ppc64le, s390x and riscv64
// would compute it — differs from the unfused one every CPU must agree
// on. The pinned values are the unfused ones: the side is "above"
// (Eval is exactly 0, while the fused value is negative), the record's
// score is 0x3fe428f5c28f5c28 (fused: …29), and a range answer at x
// verifies with both tied records. A CPU that fused any of these would
// fail here, and its client would reject an honest amd64 server's
// answer at this input.
func TestUnfusedOnHyperplane2D(t *testing.T) {
	x := geometry.Point{0.7, 0.7}
	tpl := funcs.ScalarProduct(2)
	r1 := record.Record{ID: 1, Attrs: []float64{0.5, 0.4}}
	r2 := record.Record{ID: 2, Attrs: []float64{0.4, 0.5}}
	h := funcs.Diff(tpl.Interpret(0, r1), tpl.Interpret(1, r2))

	// The fixture is sharp: fusing moves both values.
	fusedEval := math.FMA(h.C[1], x[1], h.C[0]*x[0]) + h.B
	fusedScore := math.FMA(r1.Attrs[1], x[1], r1.Attrs[0]*x[0])
	if fusedEval >= 0 || fusedScore != math.Float64frombits(0x3fe428f5c28f5c29) {
		t.Fatalf("fused reference moved: Eval %v, Score %v", fusedEval, fusedScore)
	}
	if got := h.Eval(x); got != 0 {
		t.Errorf("Eval = %v, want exactly 0 (unfused)", got)
	}
	if got := h.Side(x); got != 1 {
		t.Errorf("Side = %d, want +1 (above)", got)
	}
	for _, r := range []record.Record{r1, r2} {
		if got := tpl.Score(r, x); got != math.Float64frombits(0x3fe428f5c28f5c28) {
			t.Errorf("record %d: Score = %v (%#x), want 0.6299999999999999 (0x3fe428f5c28f5c28)", r.ID, got, math.Float64bits(got))
		}
	}

	tbl, err := record.NewTable(record.Schema{
		Name:    "points",
		Columns: []record.Column{{Name: "a"}, {Name: "b"}},
	}, []record.Record{r1, r2, {ID: 3, Attrs: []float64{0.9, 0.9}}, {ID: 4, Attrs: []float64{0.1, 0.2}}})
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewRange(x, 0.6, 0.7)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree, err := BuildCtx(context.Background(), tbl, Params{
			Mode:     mode,
			Signer:   testSigner,
			Domain:   geometry.MustBox([]float64{0.1, 0.1}, []float64{1, 1}),
			Template: tpl,
			Seed:     5,
		})
		if err != nil {
			t.Fatalf("%v: Build: %v", mode, err)
		}
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatalf("%v: Process: %v", mode, err)
		}
		if err := verify.Verify(tree.Public(), q, ans.Records, &ans.VO, nil); err != nil {
			t.Fatalf("%v: the range answer on the hyperplane is rejected: %v", mode, err)
		}
		ids := make([]uint64, len(ans.Records))
		for i, r := range ans.Records {
			ids[i] = r.ID
		}
		slices.Sort(ids)
		if !slices.Equal(ids, []uint64{1, 2}) {
			t.Errorf("%v: range answer holds records %v, want [1 2]", mode, ids)
		}
	}
}

package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/tamper"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// TestMovedWindowIsRejected is the completeness attack of a server that
// holds the tree (ROADMAP item 28(i)): it answers with a correctly
// proved window in the wrong place (core.ProveWindow), so only the
// client's semantic checks stand between it and an accepted answer.
// The lines cross the query input x = 0 at their intercepts 0, 1, …,
// n−1, so every score there is an exact small integer and a bound or a
// target can sit exactly on a record. Each moved window is served
// through backend.Local, rewritten by a tamper.Channel, and must be
// rejected by the client in both signature modes, while the unmoved
// window the same helper proves is accepted:
//   - range [L, U] with L and U on records: shifted one either way,
//     grown by one at each end, and shrunk by one at each end, the
//     shrinks leaving a neighbour whose score is exactly L or U;
//   - kNN: shifted one either way off a target between two records,
//     and across an exact tie: the target on a record, its two
//     neighbours equidistant, the window taking the right one.
func TestMovedWindowIsRejected(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(28))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{rng.NormFloat64(), float64(i)}}
	}
	tbl, err := record.NewTable(record.Schema{Name: "lines", Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}}}, recs)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Point{0}
	type move struct {
		name          string
		dStart, dSize int // the moved window starts dStart later and holds dSize more records
	}
	shifts := []move{{"shifted left", -1, 0}, {"shifted right", 1, 0}}
	ranges := append(shifts, move{"grown left", -1, 1}, move{"grown right", 0, 1},
		move{"shrunk onto L", 1, -1}, move{"shrunk onto U", 0, -1})
	cases := []struct {
		q     query.Query
		moves []move
	}{
		{query.NewRange(x, 8, 15), ranges},
		{query.NewKNN(x, 3, 11.25), shifts},
		{query.NewKNN(x, 2, 11), []move{{"across the tie", 1, 0}}},
	}
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		owner, err := core.BuildCtx(context.Background(), tbl, core.Params{
			Mode: mode, Signer: signer, Domain: geometry.MustBox([]float64{-1}, []float64{1}),
			Template: funcs.AffineLine(0, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		tree := owner.Tree
		local, err := backend.NewLocal(tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			honest, err := tree.Process(c.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			start, size := honest.VO.Start, len(honest.Records)
			if tpl := funcs.AffineLine(0, 1); c.q.Kind == query.Range &&
				(tpl.Score(honest.Records[0], x) != c.q.L || tpl.Score(honest.Records[size-1], x) != c.q.U) {
				t.Fatalf("%v: the honest window does not start on L and end on U", c.q)
			}
			for _, m := range append([]move{{"unmoved", 0, 0}}, c.moves...) {
				what := fmt.Sprintf("%v %v %s", mode, c.q, m.name)
				lie, err := core.ProveWindow(tree, c.q, start+m.dStart, size+m.dSize)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				ch := tamper.Channel{Inner: local, Rewrite: func(query.Query, []byte) []byte { return wire.EncodeIFMH(lie) }}
				_, errs := ch.QueryBatch(context.Background(), []query.Query{c.q}, backend.WithVerify(tree.Public()))
				switch {
				case m.dStart == 0 && m.dSize == 0 && errs[0] != nil:
					t.Fatalf("%s: the honest window was rejected: %v", what, errs[0])
				case (m.dStart != 0 || m.dSize != 0) && !errors.Is(errs[0], verify.ErrVerification):
					t.Errorf("%s: got %v, want ErrVerification", what, errs[0])
				}
			}
		}
	}
}

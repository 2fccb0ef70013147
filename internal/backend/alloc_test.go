package backend

import (
	"bytes"
	"context"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// TestServedAnswerIsOneAllocation pins the server's hot path: Local's
// primitive walks into an answer on its own stack frame, so a window of
// up to 64 records costs one allocation — the exact-length frame — in
// both modes, for every query kind, and the frame is the one
// Tree.Process + wire.EncodeIFMH write.
func TestServedAnswerIsOneAllocation(t *testing.T) {
	_, multi, dom, p := fixture(t, 200)
	p.Mode = verify.OneSignature
	one, err := core.BuildCtx(context.Background(), multi.Table(), p)
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	for _, tree := range []*core.Tree{one.Tree, multi} {
		b, err := NewLocal(tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []query.Query{
			query.NewTopK(x, 64), query.NewBottomK(x, 1), query.NewKNN(x, 17, 0),
			query.NewRange(x, -0.5, 0.5), query.NewRange(x, 1e9, 2e9),
		} {
			want, err := tree.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Records) > 64 {
				t.Fatalf("%v %v: a %d-record window is past the stack scratch", tree.Mode(), q.Kind, len(want.Records))
			}
			_, _, got, err := b.process(q, nil)
			if err != nil || !bytes.Equal(got, wire.EncodeIFMH(want)) {
				t.Fatalf("%v %v: the served frame is not Process's (err %v)", tree.Mode(), q.Kind, err)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if _, _, _, err := b.process(q, nil); err != nil {
					t.Fatal(err)
				}
			}); allocs != 1 {
				t.Errorf("%v %v: %v allocations per served answer, want 1 (the frame)", tree.Mode(), q.Kind, allocs)
			}
		}
	}
}

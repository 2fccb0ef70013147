package backend

import (
	"bytes"
	"context"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/itree"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
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

// TestDeepestPathIsOneAllocation holds the served answer to one
// allocation on the longest IMH path: a one-signature build of 10 000
// lines (about 28 000 subdomains) answers a top-64 query into its
// deepest leaf from the stack scratch, whose path holds 32 steps. A
// median-split univariate tree is at most ⌈log₂ S⌉ = 15 deep here; a
// treap over the same thresholds reached 36 steps and took a second
// allocation.
func TestDeepestPathIsOneAllocation(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := core.BuildCtx(context.Background(), tbl, core.Params{
		Mode: verify.OneSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var deepest *itree.Node
	steps := -1
	var walk func(n *itree.Node, d int)
	walk = func(n *itree.Node, d int) {
		if n.IsLeaf() {
			if d > steps {
				deepest, steps = n, d
			}
			return
		}
		walk(n.Below, d+1)
		walk(n.Above, d+1)
	}
	walk(one.Snapshot().ITree.Root, 0)
	q := query.NewTopK(geometry.Point{deepest.Leaf.Region.(*itree.Interval1D).Lo}, 64)
	want, err := one.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.VO.Path) != steps {
		t.Fatalf("the query took a %d-step path, the deepest leaf is %d steps down", len(want.VO.Path), steps)
	}
	b, err := NewLocal(one.Tree)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := b.process(q, nil)
	if err != nil || !bytes.Equal(got, wire.EncodeIFMH(want)) {
		t.Fatalf("the served frame is not Process's (err %v)", err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := b.process(q, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("%v allocations per served answer on a %d-step path, want 1 (the frame)", allocs, steps)
	}
}

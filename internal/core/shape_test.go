package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/itree"
	"aqverify/internal/query"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// reshaped rebuilds o's univariate IMH-tree as another shape over the
// same leaves — the treap that inserting its crossings in the n-D
// canonical order under seed builds (itree.Build over the same space),
// its subdomains numbered left to right as the median split numbers
// them — and re-seals it, so its root digest and signatures are the new
// shape's. A univariate build has one shape, so this is the only way to
// a second.
func reshaped(t *testing.T, o *Owner, seed int64) *Owner {
	t.Helper()
	inters, err := itree.Pairs1DCtx(context.Background(), o.fs, o.domain)
	if err != nil {
		t.Fatal(err)
	}
	tr := itree.Build(o.itree.Space, inters, seed)
	if len(tr.Subs) != len(o.subs) {
		t.Fatalf("the reshaped tree has %d subdomains, the built one %d", len(tr.Subs), len(o.subs))
	}
	for i, si := range o.subs {
		si.Sub = tr.Subs[i]
	}
	o.itree = tr
	if err := o.seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestMultiSignatureBytesIgnoreTreeShape writes down the invariant that
// lets the IMH-tree's shape change without moving a multi-signature
// deployment's answers: a multi-signature VO carries the subdomain's
// inequalities and an FMH proof, never the IMH path, so two builds of
// one table under different shapes answer byte-identically and each
// answer verifies under either build's published bundle. A
// one-signature VO carries the path: the same two builds answer with
// different bytes, each verifies as issued, and neither path verifies
// against the other tree's signed root. The two shapes are the median
// split every univariate build makes and a treap over its crossings.
func TestMultiSignatureBytesIgnoreTreeShape(t *testing.T) {
	tbl := lineTable(t, 40, 11)
	var qs []query.Query
	for i := 0; i < 12; i++ {
		x := geometry.Point{-0.9 + 0.15*float64(i)}
		qs = append(qs, query.NewTopK(x, 1+i%5), query.NewRange(x, -1, 2), query.NewKNN(x, 1+i%4, 0.5))
	}
	for _, mode := range []verify.Mode{verify.MultiSignature, verify.OneSignature} {
		a, b := build1D(t, tbl, mode), reshaped(t, build1D(t, tbl, mode), 2)
		if a.Fingerprint() == b.Fingerprint() {
			t.Fatalf("%v: the two shapes are the same tree; the test shows nothing", mode)
		}
		same := 0
		for _, q := range qs {
			aa, err := a.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			ab, err := b.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(wire.EncodeIFMH(aa), wire.EncodeIFMH(ab)) {
				same++
			}
			for _, pub := range []verify.PublicParams{a.Public(), b.Public()} {
				for _, ans := range []*verify.Answer{aa, ab} {
					if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
						t.Fatalf("%v %v: honest answer rejected: %v", mode, q, err)
					}
				}
			}
			if mode == verify.OneSignature {
				spliced := aa.Clone()
				spliced.VO.Signature = ab.VO.Signature
				if err := verify.Verify(a.Public(), q, spliced.Records, &spliced.VO, nil); !errors.Is(err, verify.ErrVerification) {
					t.Fatalf("%v: one tree's path under the other's signed root: got %v, want ErrVerification", q, err)
				}
			}
		}
		if mode == verify.MultiSignature && same != len(qs) {
			t.Errorf("multi-signature: %d of %d answers byte-identical across shapes, want all", same, len(qs))
		}
		if mode == verify.OneSignature && same != 0 {
			t.Errorf("one-signature: %d of %d answers byte-identical across shapes, want none", same, len(qs))
		}
	}
}

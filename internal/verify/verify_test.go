package verify_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// TestWindowStartCannotWrap forges a range answer from an honest one:
// one fabricated record inside the range, fabricated neighbours outside
// it, the window start at the int limit, and the honest FMH root as the
// only proof digest. Were the window end computed as Start+m, it would
// wrap below the list length; the FMH replay would then hash no leaf and
// return that digest as the root, which the honest IMH path (or
// inequality set) and signature anchor. It must be refused in both modes.
func TestWindowStartCannotWrap(t *testing.T) {
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]record.Record, 12)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{float64(i%5) - 2, float64(i%7)/2 - 1.5}}
	}
	tbl, err := record.NewTable(record.Schema{Name: "lines", Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}}}, recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree, err := core.BuildCtx(context.Background(), tbl, core.Params{
			Mode:     mode,
			Signer:   signer,
			Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
			Template: funcs.AffineLine(0, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		q := query.NewRange(geometry.Point{0.3}, -1, 1)
		honest, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		forged := forgeWrappedStart(t, honest, math.MaxInt)
		if err := verify.Verify(tree.Public(), q, forged.Records, &forged.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: forged answer with a wrapped window start: %v, want a verification failure", mode, err)
		}
	}
}

// forgeWrappedStart builds the forgery TestWindowStartCannotWrap
// describes, at window start start.
func forgeWrappedStart(t *testing.T, honest *verify.Answer, start int) *verify.Answer {
	h := hashing.New(nil)
	vo := honest.VO
	leaf := func(b verify.Boundary) hashing.Digest {
		switch b.Kind {
		case verify.BoundaryMin:
			return h.SentinelMin(vo.ListLen)
		case verify.BoundaryMax:
			return h.SentinelMax(vo.ListLen)
		}
		return h.Leaf(h.Record(b.Rec))
	}
	leaves := []hashing.Digest{leaf(vo.Left)}
	for _, r := range honest.Records {
		leaves = append(leaves, h.Leaf(h.Record(r)))
	}
	root, err := verify.ComputeFMHRoot(h, vo.ListLen, vo.Start, append(leaves, leaf(vo.Right)), vo.FProof)
	if err != nil {
		t.Fatal(err)
	}
	q := honest.Query
	fake := func(id uint64, score float64) verify.Boundary {
		return verify.Boundary{Kind: verify.BoundaryRecord, Rec: record.Record{ID: id, Attrs: []float64{0, score}}}
	}
	forged := honest.Clone()
	forged.Records = []record.Record{fake(1000, (q.L+q.U)/2).Rec}
	forged.VO.Left, forged.VO.Right = fake(1001, q.L-1), fake(1002, q.U+1)
	forged.VO.Start = start
	forged.VO.FProof.Hashes = []hashing.Digest{root}
	return forged
}

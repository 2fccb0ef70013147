package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// Fuzz targets: the decoders face attacker-controlled bytes by design
// (the channel is untrusted), so they must never panic and every accepted
// input must re-encode canonically. Seeds come from real answers; run
// longer campaigns with `go test -fuzz=FuzzDecodeIFMH ./internal/wire`.

func seedAnswers(f *testing.F) {
	tbl := lineTableF(f, 12, 77)
	tree, err := core.BuildCtx(context.Background(), tbl, core.Params{
		Mode:     verify.OneSignature,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range []query.Query{
		query.NewTopK(geometry.Point{0.2}, 3),
		query.NewRange(geometry.Point{-0.4}, -1, 1),
		query.NewKNN(geometry.Point{0.6}, 2, 0),
	} {
		ans, err := tree.Process(q, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeIFMH(ans))
	}
	f.Add([]byte{})
	f.Add([]byte{0xA1})
	f.Add([]byte{0xA2, 0, 0, 0})
	for _, frame := range forgedGeometry(f) {
		f.Add(frame)
	}
}

// forgedGeometry returns honest answers whose server-controlled geometry
// fields were swapped for the three inputs internal/geometry's decoders
// once mishandled: an inequality set that is only a count of 2^24 (640 MB
// allocated before the first parse failed), a path hyperplane whose
// coefficient count wraps 8*(n+1) on a 32-bit int (fatal out-of-memory on
// GOARCH=386), and a strictness byte of 7 (accepted, re-encoded as 0).
func forgedGeometry(f testing.TB) [][]byte {
	build := func(mode verify.Mode) *verify.Answer {
		tree, err := core.BuildCtx(context.Background(), lineTableF(f, 12, 77), core.Params{
			Mode:     mode,
			Signer:   testSigner,
			Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
			Template: funcs.AffineLine(0, 1),
		})
		if err != nil {
			f.Fatal(err)
		}
		ans, err := tree.Process(query.NewTopK(geometry.Point{0.2}, 3), nil)
		if err != nil {
			f.Fatal(err)
		}
		return ans
	}
	// swap replaces the length-prefixed field holding old with repl.
	swap := func(frame, old, repl []byte) []byte {
		at := bytes.Index(frame, old)
		if at < 4 || len(old) == 0 {
			f.Fatal("field not found in the frame")
		}
		out := append([]byte(nil), frame[:at-4]...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(repl)))
		return append(append(out, repl...), frame[at+len(old):]...)
	}
	multi, one := build(verify.MultiSignature), build(verify.OneSignature)
	if len(multi.VO.Ineqs) == 0 || len(one.VO.Path) == 0 {
		f.Fatal("seed answers carry no inequalities / no path")
	}
	ineqs := geometry.EncodeHalfspaces(nil, multi.VO.Ineqs)
	oddStrict := append([]byte(nil), ineqs...)
	oddStrict[4] = 7
	wrapCount := append([]byte{0x1F, 0xFF, 0xFF, 0xFF}, make([]byte, 8)...)
	return [][]byte{
		swap(EncodeIFMH(multi), ineqs, []byte{1, 0, 0, 0}),
		swap(EncodeIFMH(one), one.VO.Path[0].Hp.Encode(nil), wrapCount),
		swap(EncodeIFMH(multi), ineqs, oddStrict),
	}
}

// TestForgedGeometryIsRefused runs the forged seeds as a plain test, so
// the refusals are held on every `go test` (and under GOARCH=386 in CI),
// not only when the fuzz corpus is replayed.
func TestForgedGeometryIsRefused(t *testing.T) {
	for i, frame := range forgedGeometry(t) {
		if ans, err := DecodeIFMH(frame); err == nil {
			t.Errorf("forged frame %d accepted: %+v", i, ans.VO)
		}
	}
}

func lineTableF(f testing.TB, n int, seed int64) record.Table {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{float64(i%5) - 2, float64(i % 3)}}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "lines",
		Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}},
	}, recs)
	if err != nil {
		f.Fatal(err)
	}
	return tbl
}

func FuzzDecodeIFMH(f *testing.F) {
	seedAnswers(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ans, err := DecodeIFMH(data)
		if err != nil {
			return
		}
		// Accepted input must re-encode to the identical bytes: the
		// codec admits exactly one encoding per answer.
		want := string(data)
		if got := EncodeIFMH(ans); string(got) != want {
			t.Fatalf("decode/encode not canonical: %d vs %d bytes", len(got), len(data))
		}
		// The decoder parses records, hyperplanes and inequalities out of
		// sub-slices of the input; nothing the answer keeps may alias it.
		for i := range data {
			data[i] ^= 0xFF
		}
		if got := EncodeIFMH(ans); string(got) != want {
			t.Fatal("decoded answer aliases the input buffer")
		}
	})
}

// FuzzVerify holds the line a client relies on: whatever bytes arrive,
// an answer that decodes and verifies carries exactly the records the
// tree's own Process returns for the decoded query. Process is the
// reference, not query.Exec: at a breakpoint Exec breaks score ties by
// record index, not by the owner's order.
func FuzzVerify(f *testing.F) {
	trees := verifyTrees(f)
	for _, tree := range trees {
		for _, q := range []query.Query{
			query.NewTopK(geometry.Point{0.2}, 3),
			query.NewBottomK(geometry.Point{-0.7}, 2),
			query.NewRange(geometry.Point{-0.4}, -1, 1),
			query.NewKNN(geometry.Point{0.6}, 2, 0),
		} {
			ans, err := tree.Process(q, nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(EncodeIFMH(ans))
		}
		f.Add(wrappedStartFrame(f, tree))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ans, err := DecodeIFMH(data)
		if err != nil || int(ans.VO.Mode) >= len(trees) {
			return
		}
		tree := trees[ans.VO.Mode]
		if verify.Verify(tree.Public(), ans.Query, ans.Records, &ans.VO, nil) != nil {
			return
		}
		want, err := tree.Process(ans.Query, nil)
		if err != nil {
			t.Fatalf("verified an answer to a query the tree refuses: %v", err)
		}
		if len(ans.Records) != len(want.Records) {
			t.Fatalf("verified %d records, the tree answers %d", len(ans.Records), len(want.Records))
		}
		for i := range want.Records {
			if !ans.Records[i].Equal(want.Records[i]) {
				t.Fatalf("verified record %d is %+v, the tree answers %+v", i, ans.Records[i], want.Records[i])
			}
		}
	})
}

// verifyTrees builds FuzzVerify's fixed trees, indexed by mode.
func verifyTrees(tb testing.TB) [2]*core.Tree {
	var trees [2]*core.Tree
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree, err := core.BuildCtx(context.Background(), lineTableF(tb, 12, 77), core.Params{
			Mode:     mode,
			Signer:   testSigner,
			Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
			Template: funcs.AffineLine(0, 1),
		})
		if err != nil {
			tb.Fatal(err)
		}
		trees[mode] = tree.Tree
	}
	return trees
}

// wrappedStartFrame forges a range answer from an honest one: one
// fabricated record inside the range, fabricated neighbours outside it,
// window start math.MaxInt32 (the largest codec.Nonneg admits on 32-bit),
// and the honest FMH root as the only proof digest. Where Start+1 wraps,
// the FMH replay hashes no leaf and returns that digest as the root,
// which the honest path or inequalities and signature then anchor.
func wrappedStartFrame(tb testing.TB, tree *core.Tree) []byte {
	q := query.NewRange(geometry.Point{0.3}, -1, 1)
	honest, err := tree.Process(q, nil)
	if err != nil {
		tb.Fatal(err)
	}
	h := hashing.New(nil)
	vo := honest.VO
	leaf := func(b verify.Boundary) hashing.Digest {
		switch b.Kind {
		case verify.BoundaryMin:
			return h.SentinelMin(vo.ListLen)
		case verify.BoundaryMax:
			return h.SentinelMax(vo.ListLen)
		}
		return h.Leaf(b.Rec)
	}
	leaves := []hashing.Digest{leaf(vo.Left)}
	for _, r := range honest.Records {
		leaves = append(leaves, h.Leaf(r))
	}
	root, err := verify.ComputeFMHRoot(h, vo.ListLen, vo.Start, append(leaves, leaf(vo.Right)), vo.FProof)
	if err != nil {
		tb.Fatal(err)
	}
	fake := func(id uint64, score float64) verify.Boundary {
		return verify.Boundary{Kind: verify.BoundaryRecord, Rec: record.Record{ID: id, Attrs: []float64{0, score}}}
	}
	forged := honest.Clone()
	forged.Records = []record.Record{fake(1000, 0).Rec}
	forged.VO.Left, forged.VO.Right = fake(1001, q.L-1), fake(1002, q.U+1)
	forged.VO.Start = math.MaxInt32
	forged.VO.FProof.Hashes = []hashing.Digest{root}
	return EncodeIFMH(forged)
}

// TestWrappedStartFrameIsRefused sends wrappedStartFrame through decode
// and Verify on every run, so the refusal is held under GOARCH=386 too,
// where the frame's start is the int limit.
func TestWrappedStartFrameIsRefused(t *testing.T) {
	for mode, tree := range verifyTrees(t) {
		ans, err := DecodeIFMH(wrappedStartFrame(t, tree))
		if err != nil {
			t.Fatalf("%v: the forged frame must decode: %v", verify.Mode(mode), err)
		}
		if err := verify.Verify(tree.Public(), ans.Query, ans.Records, &ans.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: forged frame with a wrapped window start: %v, want a verification failure", verify.Mode(mode), err)
		}
	}
}

// FuzzDecodeAnswerBatch drives the epoch-carrying answer-batch decoder
// over attacker-controlled bytes: it must never panic, and any batch it
// accepts must re-encode to the identical bytes — including the
// per-item shard and epoch words.
func FuzzDecodeAnswerBatch(f *testing.F) {
	mustBatch := func(items ...BatchAnswer) []byte {
		enc, err := EncodeAnswerBatch(items)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	f.Add(mustBatch())
	f.Add(mustBatch(
		NewAnswer([]byte{0xA1, 1, 2, 3}, 2).AtEpoch(7),
		NewRefusal("no", ShardNone),
		NewAnswer(nil, 0).AtEpoch(1<<40)))
	// Retired pre-epoch magic, bare header, wrong magic.
	f.Add([]byte{0xB3, 0, 0, 0, 0})
	f.Add([]byte{0xB5, 0, 0, 0, 1})
	f.Add([]byte{0xB1})
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeAnswerBatch(data)
		if err != nil {
			return
		}
		enc, err := EncodeAnswerBatch(items)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical: %d vs %d bytes", len(enc), len(data))
		}
		// Payloads are views of the input: each must be cap-limited, so
		// an append reallocates instead of writing into its neighbour.
		for i, it := range items {
			if cap(it.Answer) != len(it.Answer) {
				t.Fatalf("item %d: payload view len %d cap %d", i, len(it.Answer), cap(it.Answer))
			}
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	f.Add(EncodeQuery(query.NewTopK(geometry.Point{0.5}, 3)))
	f.Add(EncodeQuery(query.NewRange(geometry.Point{0.1, 0.2}, -1, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(data)
		if err != nil {
			return
		}
		if got := EncodeQuery(q); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/mesh"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

// Fuzz targets: the decoders face attacker-controlled bytes by design
// (the channel is untrusted), so they must never panic and every accepted
// input must re-encode canonically. Seeds come from real answers; run
// longer campaigns with `go test -fuzz=FuzzDecodeIFMH ./internal/wire`.

func seedAnswers(f *testing.F) {
	tbl := lineTableF(f, 12, 77)
	tree, err := core.Build(tbl, core.Params{
		Mode:     core.OneSignature,
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
	build := func(mode core.Mode) *core.Answer {
		tree, err := core.Build(lineTableF(f, 12, 77), core.Params{
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
	multi, one := build(core.MultiSignature), build(core.OneSignature)
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

func FuzzDecodeMesh(f *testing.F) {
	tbl := lineTableF(f, 10, 78)
	m, err := mesh.Build(tbl, mesh.Params{
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		f.Fatal(err)
	}
	ans, err := m.Process(query.NewTopK(geometry.Point{0.1}, 3), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeMesh(ans))
	f.Add([]byte{0xA2})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeMesh(data)
		if err != nil {
			return
		}
		if got := EncodeMesh(dec); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical: %d vs %d bytes", len(got), len(data))
		}
	})
}

// FuzzDecodeAnswerStream drives the incremental stream decoder over
// attacker-controlled bytes: it must never panic, and any stream it
// drains cleanly must re-encode — header, items in arrival order,
// trailer — to the identical bytes (the codec admits exactly one
// encoding per stream).
func FuzzDecodeAnswerStream(f *testing.F) {
	mustItem := func(index int, it BatchAnswer) []byte {
		frame, err := EncodeStreamItem(index, it)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	stream := func(count int, frames ...[]byte) []byte {
		out := EncodeStreamHeader(count)
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	// A complete two-item stream, completion order ≠ index order, one
	// item carrying a publication epoch.
	full := stream(2,
		mustItem(1, NewAnswer([]byte{0xA1, 1, 2}, 0).AtEpoch(4)),
		mustItem(0, NewRefusal("no", ShardNone)),
		EncodeStreamTrailer(2))
	f.Add(full)
	// Truncated trailer: the stream dies one byte into the tally.
	f.Add(full[:len(full)-3])
	// Duplicate index.
	f.Add(stream(2,
		mustItem(0, NewAnswer([]byte{0xA1}, 1)),
		mustItem(0, NewAnswer([]byte{0xA1}, 1)),
		EncodeStreamTrailer(2)))
	// Out-of-range index.
	f.Add(stream(1,
		mustItem(3, NewAnswer(nil, ShardNone)),
		EncodeStreamTrailer(1)))
	// Empty stream, bare header, wrong magic.
	f.Add(stream(0, EncodeStreamTrailer(0)))
	f.Add(EncodeStreamHeader(5))
	f.Add([]byte{0xB3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var items []StreamItem
		for {
			it, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			items = append(items, it)
		}
		enc := EncodeStreamHeader(sr.Count())
		for _, it := range items {
			frame, err := EncodeStreamItem(it.Index, it.Ans)
			if err != nil {
				t.Fatalf("accepted item does not re-encode: %v", err)
			}
			enc = append(enc, frame...)
		}
		enc = append(enc, EncodeStreamTrailer(len(items))...)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical: %d vs %d bytes", len(enc), len(data))
		}
	})
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

package wire

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/codec"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

var testSigner = func() sig.Signer {
	s, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		panic(err)
	}
	return s
}()

func lineTable(t testing.TB, n int, seed int64) record.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			ID:      uint64(i + 1),
			Attrs:   []float64{rng.NormFloat64(), rng.NormFloat64()},
			Payload: []byte{byte(i)},
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "lines",
		Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func ifmhAnswers(t *testing.T, mode verify.Mode) []*verify.Answer {
	t.Helper()
	tbl := lineTable(t, 25, int64(mode)+1)
	tree, err := core.BuildCtx(context.Background(), tbl, core.Params{
		Mode:     mode,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*verify.Answer
	for _, q := range []query.Query{
		query.NewTopK(geometry.Point{0.4}, 3),
		query.NewRange(geometry.Point{-0.2}, -1, 1),
		query.NewRange(geometry.Point{0.1}, 1e6, 2e6), // empty
		query.NewKNN(geometry.Point{0.7}, 4, 0),
	} {
		a, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func answersEqualIFMH(a, b *verify.Answer) bool {
	if len(a.Records) != len(b.Records) || a.VO.Mode != b.VO.Mode ||
		a.VO.ListLen != b.VO.ListLen || a.VO.Start != b.VO.Start ||
		a.VO.Left.Kind != b.VO.Left.Kind || a.VO.Right.Kind != b.VO.Right.Kind ||
		len(a.VO.FProof.Hashes) != len(b.VO.FProof.Hashes) ||
		len(a.VO.Path) != len(b.VO.Path) || len(a.VO.Ineqs) != len(b.VO.Ineqs) ||
		string(a.VO.Signature) != string(b.VO.Signature) {
		return false
	}
	for i := range a.Records {
		if !a.Records[i].Equal(b.Records[i]) {
			return false
		}
	}
	for i := range a.VO.FProof.Hashes {
		if a.VO.FProof.Hashes[i] != b.VO.FProof.Hashes[i] {
			return false
		}
	}
	for i := range a.VO.Path {
		if a.VO.Path[i].TookAbove != b.VO.Path[i].TookAbove ||
			a.VO.Path[i].Sibling != b.VO.Path[i].Sibling {
			return false
		}
	}
	return true
}

func TestIFMHRoundTrip(t *testing.T) {
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		for i, a := range ifmhAnswers(t, mode) {
			enc := EncodeIFMH(a)
			got, err := DecodeIFMH(enc)
			if err != nil {
				t.Fatalf("%v answer %d: decode: %v", mode, i, err)
			}
			if !answersEqualIFMH(a, got) {
				t.Fatalf("%v answer %d: round trip changed the answer", mode, i)
			}
			// Deterministic encoding.
			if string(EncodeIFMH(got)) != string(enc) {
				t.Fatalf("%v answer %d: re-encode differs", mode, i)
			}
		}
	}
}

func TestDecodedAnswerStillVerifies(t *testing.T) {
	tbl := lineTable(t, 30, 5)
	tree, err := core.BuildCtx(context.Background(), tbl, core.Params{
		Mode:     verify.MultiSignature,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := tree.Public()
	q := query.NewTopK(geometry.Point{0.3}, 5)
	a, err := tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIFMH(EncodeIFMH(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(pub, q, got.Records, &got.VO, nil); err != nil {
		t.Fatalf("decoded answer rejected: %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	a := ifmhAnswers(t, verify.OneSignature)[0]
	enc := EncodeIFMH(a)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeIFMH(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is also rejected.
	if _, err := DecodeIFMH(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Wrong magic.
	bad := append([]byte(nil), enc...)
	bad[0] = 0x77
	if _, err := DecodeIFMH(bad); err == nil {
		t.Error("wrong magic accepted")
	}
}

// TestPathDirectionIsCanonical: a path step's direction is a bool byte.
// A decoder that read it as "== 1" accepted 2 as "below" and re-encoded
// it as 0 — two encodings of one answer, which the codec forbids.
func TestPathDirectionIsCanonical(t *testing.T) {
	a := ifmhAnswers(t, verify.OneSignature)[0]
	if len(a.VO.Path) == 0 {
		t.Fatal("seed answer carries no path")
	}
	enc := EncodeIFMH(a)
	hp := a.VO.Path[0].Hp.Encode(nil)
	at := bytes.Index(enc, hp) + len(hp) // the direction byte follows the hyperplane
	for _, b := range []byte{2, 0x80, 0xFF} {
		forged := append([]byte(nil), enc...)
		forged[at] = b
		if _, err := DecodeIFMH(forged); err == nil {
			t.Errorf("path direction byte %#x accepted", b)
		}
	}
}

// TestEncodeIFMHIsOneExactAllocation holds sizeIFMH and EncodeIFMH
// together: the frame is allocated once, at exactly its length — every
// kind, both modes, with and without sentinel boundaries and payloads —
// and the VO-size metric read off the same arithmetic is the frame minus
// the magic byte, the query echo and the records.
func TestEncodeIFMHIsOneExactAllocation(t *testing.T) {
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		for i, a := range ifmhAnswers(t, mode) {
			enc := EncodeIFMH(a)
			if len(enc) != sizeIFMH(a) || cap(enc) != len(enc) {
				t.Errorf("%v answer %d: sizeIFMH %d, frame len %d cap %d", mode, i, sizeIFMH(a), len(enc), cap(enc))
			}
			if allocs := testing.AllocsPerRun(50, func() { EncodeIFMH(a) }); allocs != 1 {
				t.Errorf("%v answer %d: %v allocations per encode, want 1", mode, i, allocs)
			}
			w := &codec.Writer{}
			encodeQuery(w, a.Query)
			encodeRecords(w, a.Records)
			if got, want := VOSizeIFMH(a), len(enc)-1-len(w.Buf); got != want {
				t.Errorf("%v answer %d: VO size %d, frame minus echo and records is %d", mode, i, got, want)
			}
		}
	}
}

// TestAnswerBatchIsOneExactAllocation pins the batch codec's half of
// "allocated once per hop": the frame is sized before it is written (one
// allocation, len == cap — 0, 1 and 64 items, refusals with empty and
// non-empty messages), and a decoded batch views its frame instead of
// copying it — one allocation for the items plus one string per refusal,
// every payload cap-limited so an append to item i cannot reach item
// i+1, and the views re-encode to the identical bytes.
func TestAnswerBatchIsOneExactAllocation(t *testing.T) {
	mixed := make([]BatchAnswer, 64)
	refusals := 0
	for i := range mixed {
		switch i % 8 {
		case 3:
			mixed[i] = NewRefusal("", i%2)
		case 5:
			mixed[i] = NewRefusal("core: function input outside the owner-specified domain", ShardNone)
			refusals++
		default:
			mixed[i] = NewAnswer(bytes.Repeat([]byte{byte(i)}, 900+37*i), i%2).AtEpoch(3)
		}
	}
	for _, items := range [][]BatchAnswer{nil, mixed[:1], mixed} {
		enc, err := EncodeAnswerBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		if cap(enc) != len(enc) {
			t.Errorf("%d items: frame len %d cap %d", len(items), len(enc), cap(enc))
		}
		if allocs := testing.AllocsPerRun(20, func() { EncodeAnswerBatch(items) }); allocs != 1 {
			t.Errorf("%d items: %v allocations per encode, want 1", len(items), allocs)
		}
		want := 1
		if len(items) == len(mixed) {
			want += refusals // the empty-message ones cost nothing
		}
		if allocs := testing.AllocsPerRun(20, func() { DecodeAnswerBatch(enc) }); allocs > float64(want) {
			t.Errorf("%d items: %v allocations per decode, want <= %d", len(items), allocs, want)
		}
		got, err := DecodeAnswerBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Status == StatusAnswer && cap(got[i].Answer) != len(got[i].Answer) {
				t.Fatalf("item %d: payload view len %d cap %d", i, len(got[i].Answer), cap(got[i].Answer))
			}
			_ = append(got[i].Answer, 0xEE) // must reallocate, not write into the frame
		}
		if re, err := EncodeAnswerBatch(got); err != nil || !bytes.Equal(re, enc) {
			t.Errorf("%d items: appending to the decoded payloads changed the frame (err %v)", len(items), err)
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = query.NewRange(geometry.Point{0.01 * float64(i)}, -1, 1)
	}
	if enc := EncodeQueryBatch(qs); cap(enc) != len(enc) {
		t.Errorf("query batch frame len %d cap %d", len(enc), cap(enc))
	}
	if allocs := testing.AllocsPerRun(20, func() { EncodeQueryBatch(qs) }); allocs != 1 {
		t.Errorf("%v allocations per query-batch encode, want 1", allocs)
	}
	// One query is the cache's key on every lookup, hit or miss.
	if enc := EncodeQuery(qs[0]); cap(enc) != len(enc) {
		t.Errorf("query len %d cap %d", len(enc), cap(enc))
	}
	if allocs := testing.AllocsPerRun(20, func() { EncodeQuery(qs[0]) }); allocs != 1 {
		t.Errorf("%v allocations per query encode, want 1", allocs)
	}
}

// TestDecodeIFMHAllocationsAreFlatInTheWindow pins the client's decode
// bill: every record's Attrs comes out of one array per answer, so a
// 16-times wider window costs no more allocations, the attribute slices
// are cap-limited, and (FuzzDecodeIFMH's promise) none aliases the input.
func TestDecodeIFMHAllocationsAreFlatInTheWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]record.Record, 80)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()}}
	}
	tbl, err := record.NewTable(record.Schema{Name: "lines", Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}}}, recs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BuildCtx(context.Background(), tbl, core.Params{
		Mode: verify.MultiSignature, Signer: testSigner,
		Domain: geometry.MustBox([]float64{-1}, []float64{1}), Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 64} {
		a, err := tree.Process(query.NewKNN(geometry.Point{0.3}, k, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := EncodeIFMH(a)
		if allocs := testing.AllocsPerRun(20, func() { DecodeIFMH(enc) }); allocs > 14 {
			t.Errorf("k=%d: %v allocations per decode, want <= 14", k, allocs)
		}
		got, err := DecodeIFMH(enc)
		if err != nil || len(got.Records) != k {
			t.Fatalf("k=%d: decoded %d records, err %v", k, len(got.Records), err)
		}
		for i, r := range got.Records {
			if cap(r.Attrs) != len(r.Attrs) {
				t.Fatalf("k=%d record %d: Attrs len %d cap %d", k, i, len(r.Attrs), cap(r.Attrs))
			}
		}
	}
}

func TestVOSizeExcludesResult(t *testing.T) {
	answers := ifmhAnswers(t, verify.OneSignature)
	for i, a := range answers {
		vs := VOSizeIFMH(a)
		if vs <= 0 {
			t.Fatalf("answer %d: VO size %d", i, vs)
		}
		if vs >= len(EncodeIFMH(a)) {
			t.Fatalf("answer %d: VO size %d not smaller than full answer", i, vs)
		}
	}
	// VO size is independent of the records' payload size: growing the
	// result must not grow the VO metric (only boundary records count).
	small := answers[2] // empty result
	large := answers[1] // range with records
	_ = small
	_ = large
}

package e2e

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

var propSigner = func() sig.Signer {
	s, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		panic(err)
	}
	return s
}()

func propTable(t *testing.T, n int, seed int64) record.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			ID:    uint64(i + 1),
			Attrs: []float64{rng.NormFloat64(), rng.NormFloat64() * 3},
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

// propBuild outsources tbl over [-1, 1] with the given IMH-shape seed.
func propBuild(t *testing.T, tbl record.Table, shapeSeed int64, mode verify.Mode) *core.Tree {
	t.Helper()
	tree, err := core.Build(tbl, core.Params{
		Mode: mode, Signer: propSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
		Seed:     shapeSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func propTree(t *testing.T, n int, seed int64, mode verify.Mode) *core.Tree {
	t.Helper()
	return propBuild(t, propTable(t, n, seed), seed, mode)
}

// TestMultiSignatureBytesIgnoreTreeShape writes down the invariant that
// lets the IMH-tree's shape change without moving a multi-signature
// deployment's answers: a multi-signature VO carries the subdomain's
// inequalities and an FMH proof, never the IMH path, so two builds of
// one table under different shape seeds answer byte-identically and
// each answer verifies under either build's published bundle. A
// one-signature VO carries the path: the same two builds answer with
// different bytes, each verifies as issued, and neither path verifies
// against the other tree's signed root.
func TestMultiSignatureBytesIgnoreTreeShape(t *testing.T) {
	tbl := propTable(t, 40, 11)
	var qs []query.Query
	for i := 0; i < 12; i++ {
		x := geometry.Point{-0.9 + 0.15*float64(i)}
		qs = append(qs, query.NewTopK(x, 1+i%5), query.NewRange(x, -1, 2), query.NewKNN(x, 1+i%4, 0.5))
	}
	for _, mode := range []verify.Mode{verify.MultiSignature, verify.OneSignature} {
		a, b := propBuild(t, tbl, 1, mode), propBuild(t, tbl, 2, mode)
		if a.Fingerprint() == b.Fingerprint() {
			t.Fatalf("%v: the two seeds built the same tree; the test shows nothing", mode)
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
			t.Errorf("multi-signature: %d of %d answers byte-identical across shape seeds, want all", same, len(qs))
		}
		if mode == verify.OneSignature && same != 0 {
			t.Errorf("one-signature: %d of %d answers byte-identical across shape seeds, want none", same, len(qs))
		}
	}
}

// TestQuickHonestAlwaysVerifies: for random databases, modes and queries,
// an honest server's answer always verifies, and round-tripping it
// through the wire codec changes nothing.
func TestQuickHonestAlwaysVerifies(t *testing.T) {
	f := func(dbSeed, qrySeed int64) bool {
		rng := rand.New(rand.NewSource(dbSeed))
		n := 5 + rng.Intn(40)
		mode := verify.OneSignature
		if rng.Intn(2) == 1 {
			mode = verify.MultiSignature
		}
		tree := propTree(t, n, dbSeed, mode)
		pub := tree.Public()

		qrng := rand.New(rand.NewSource(qrySeed))
		x := geometry.Point{qrng.Float64()*2 - 1}
		var q query.Query
		switch qrng.Intn(4) {
		case 0:
			q = query.NewTopK(x, 1+qrng.Intn(n+3))
		case 1:
			q = query.NewBottomK(x, 1+qrng.Intn(n+3))
		case 2:
			lo := qrng.NormFloat64() * 3
			q = query.NewRange(x, lo, lo+qrng.Float64()*5)
		default:
			q = query.NewKNN(x, 1+qrng.Intn(n+3), qrng.NormFloat64()*3)
		}

		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Logf("process: %v", err)
			return false
		}
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		dec, err := wire.DecodeIFMH(wire.EncodeIFMH(ans))
		if err != nil {
			t.Logf("wire: %v", err)
			return false
		}
		if err := verify.Verify(pub, q, dec.Records, &dec.VO, nil); err != nil {
			t.Logf("verify decoded: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRandomByteFlipNeverAltersRecords: flipping any single byte
// of a serialized answer either fails to decode, fails verification, or
// leaves the verified record set bit-identical. The last case is real:
// a handful of advisory bytes are not authenticated because no security
// property rests on them — the unused Y field of a range query can flip
// 0.0 to -0.0 (equal under the echo check's float compare, different
// bits), and an interior window's ListLen is bound by no sentinel (the
// query kinds whose semantics read ListLen — top-k, bottom-k, knn —
// require a sentinel boundary, which authenticates it). What the
// protocol does promise is that no flip can change the records a
// verifying client accepts.
func TestQuickRandomByteFlipNeverAltersRecords(t *testing.T) {
	tree := propTree(t, 25, 99, verify.OneSignature)
	pub := tree.Public()
	q := query.NewRange(geometry.Point{0.1}, -2, 2)
	ans, err := tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.EncodeIFMH(ans)

	sameRecords := func(a, b []record.Record) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if string(a[i].Encode(nil)) != string(b[i].Encode(nil)) {
				return false
			}
		}
		return true
	}
	f := func(pos uint16, bit uint8) bool {
		p := int(pos) % len(enc)
		b := byte(1) << (bit % 8)
		mut := append([]byte(nil), enc...)
		mut[p] ^= b
		dec, err := wire.DecodeIFMH(mut)
		if err != nil {
			return true // rejected at parse time
		}
		if !query.Equal(q, dec.Query) {
			return true // rejected by the client's echo check
		}
		if err := verify.Verify(pub, q, dec.Records, &dec.VO, nil); err != nil {
			return true // rejected at verification time
		}
		return sameRecords(ans.Records, dec.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

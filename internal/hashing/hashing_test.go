package hashing

import (
	"crypto/sha256"
	"testing"

	"aqverify/internal/metrics"
	"aqverify/internal/record"
)

func TestDomainSeparation(t *testing.T) {
	h := New(nil)
	r := record.Record{ID: 1, Attrs: []float64{1}}
	rd := h.Record(r)
	// The same bytes hashed under different tags must differ: a record's
	// leaf and its mesh digest, and one 32-byte digest under three tags.
	a := h.Leaf(r)
	b := h.Subdomain(rd)
	c := h.Root(rd)
	d := h.Ineqs(rd[:])
	if a == rd || a == b || a == c || b == c || a == d {
		t.Error("tagged digests collide across domains")
	}
}

// TestLeafIsOneTaggedHashOfTheEncoding pins the FMH leaf rule against
// crypto/sha256 directly: Leaf(r) = SHA-256(TagLeaf | r.Encode(nil)),
// one counted hash, for a record that fits the inline scratch and one
// whose encoding is longer; the short one allocates nothing.
func TestLeafIsOneTaggedHashOfTheEncoding(t *testing.T) {
	short := record.Record{ID: 7, Attrs: []float64{0.5, -2}, Payload: []byte("p")}
	long := record.Record{ID: 8, Attrs: make([]float64, 40), Payload: make([]byte, 100)}
	var h Hasher
	if short.EncodedLen() > len(h.buf) || long.EncodedLen() <= len(h.buf) {
		t.Fatalf("encodings of %d and %d bytes do not straddle the %d-byte scratch",
			short.EncodedLen(), long.EncodedLen(), len(h.buf))
	}
	for _, r := range []record.Record{short, long} {
		var ctr metrics.Counter
		h := New(&ctr)
		want := sha256.Sum256(append([]byte{0x02}, r.Encode(nil)...))
		if got := h.Leaf(r); got != want {
			t.Errorf("Leaf of a %d-byte encoding = %x, want SHA-256(0x02 | enc) = %x", r.EncodedLen(), got, want)
		}
		if ctr.Hashes != 1 || ctr.HashBytes != uint64(1+r.EncodedLen()) {
			t.Errorf("Leaf of a %d-byte encoding counted %d hashes over %d bytes, want 1 over %d",
				r.EncodedLen(), ctr.Hashes, ctr.HashBytes, 1+r.EncodedLen())
		}
	}
	if a := testing.AllocsPerRun(100, func() { h.Leaf(short) }); a != 0 {
		t.Errorf("Leaf of a short record allocates %v times, want 0", a)
	}
}

func TestRecordDigestSensitivity(t *testing.T) {
	h := New(nil)
	base := record.Record{ID: 1, Attrs: []float64{1, 2}, Payload: []byte("p")}
	d0 := h.Record(base)
	variants := []record.Record{
		{ID: 2, Attrs: []float64{1, 2}, Payload: []byte("p")},
		{ID: 1, Attrs: []float64{1, 3}, Payload: []byte("p")},
		{ID: 1, Attrs: []float64{1, 2}, Payload: []byte("q")},
		{ID: 1, Attrs: []float64{1, 2}},
		{ID: 1, Attrs: []float64{1, 2, 0}, Payload: []byte("p")},
	}
	for i, v := range variants {
		if h.Record(v) == d0 {
			t.Errorf("variant %d collides with base", i)
		}
	}
	if h.Record(base) != d0 {
		t.Error("digest not deterministic")
	}
}

func TestSentinelsDependOnLength(t *testing.T) {
	h := New(nil)
	if h.SentinelMin(10) == h.SentinelMin(11) {
		t.Error("min sentinel ignores list length")
	}
	if h.SentinelMax(10) == h.SentinelMax(11) {
		t.Error("max sentinel ignores list length")
	}
	if h.SentinelMin(10) == h.SentinelMax(10) {
		t.Error("min and max sentinels collide")
	}
}

func TestNodeOrderMatters(t *testing.T) {
	h := New(nil)
	var l, r Digest
	l[0], r[0] = 1, 2
	if h.Node(l, r) == h.Node(r, l) {
		t.Error("Node must not be commutative")
	}
}

func TestIntersectionBindsHyperplane(t *testing.T) {
	h := New(nil)
	var a, b Digest
	a[0], b[0] = 1, 2
	d1 := h.Intersection([]byte{1, 2, 3}, a, b)
	d2 := h.Intersection([]byte{1, 2, 4}, a, b)
	if d1 == d2 {
		t.Error("intersection digest must bind the hyperplane encoding")
	}
}

func TestCounterCountsOps(t *testing.T) {
	var ctr metrics.Counter
	h := New(&ctr)
	r := record.Record{ID: 1, Attrs: []float64{1}}
	d := h.Record(r)
	h.Leaf(r)
	h.Node(d, d)
	if ctr.Hashes != 3 {
		t.Errorf("Hashes = %d, want 3", ctr.Hashes)
	}
	if ctr.HashBytes == 0 {
		t.Error("HashBytes should be nonzero")
	}
	// Re-pointing the counter.
	var ctr2 metrics.Counter
	h2 := h.WithCounter(&ctr2)
	h2.Leaf(r)
	if ctr2.Hashes != 1 || ctr.Hashes != 3 {
		t.Error("WithCounter should isolate counting")
	}
	if h2.Counter() != &ctr2 {
		t.Error("Counter() should return the attached counter")
	}
}

func TestMultiSigAndMeshPairDiffer(t *testing.T) {
	h := New(nil)
	var a, b Digest
	a[0], b[0] = 3, 4
	if h.MultiSig(a, b) == h.MeshPair(a, b, nil) {
		t.Error("multi-sig and mesh digests must be domain separated")
	}
	if h.MeshPair(a, b, []byte{1}) == h.MeshPair(a, b, []byte{2}) {
		t.Error("mesh pair digest must bind the run encoding")
	}
}

// BenchmarkNode times one internal Merkle-node hash: 65 bytes, two
// SHA-256 blocks, the unit the FMH forest and every proof check spend.
//
//	go test ./internal/hashing -run '^$' -bench Node -count 10
func BenchmarkNode(b *testing.B) {
	h := New(nil)
	var l, r Digest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l = h.Node(l, r)
	}
}

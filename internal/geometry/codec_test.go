package geometry

import (
	"bytes"
	"runtime"
	"testing"

	"aqverify/internal/codec"
)

// The decoders below parse bytes the untrusted server controls (every
// answer's inequality set and path hyperplanes), so a forged count must
// cost nothing and every accepted encoding must be the canonical one.

// decodeHalfspace parses exactly one halfspace written by Encode.
func decodeHalfspace(src []byte) (Halfspace, error) {
	r := codec.Reader{Buf: src}
	hs := readHalfspace(&r)
	if err := r.Done(); err != nil {
		return Halfspace{}, err
	}
	return hs, nil
}

// TestDecodeHalfspacesBoundsCountByBytes: four bytes claiming 2^24
// halfspaces used to allocate 640 MB before the first one failed to
// parse. The count is bounded by the bytes that follow it.
func TestDecodeHalfspacesBoundsCountByBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeHalfspaces([]byte{1, 0, 0, 0})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count with no halfspaces behind it was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a 4-byte input allocated %d bytes", grew)
	}
	// One byte short of the second halfspace: still refused before
	// allocating for two; exactly two: accepted.
	two := EncodeHalfspaces(nil, []Halfspace{{H: Hyperplane{B: 1}}, {H: Hyperplane{B: 2}, Strict: true}})
	if _, err := DecodeHalfspaces(two[:len(two)-1]); err == nil {
		t.Fatal("truncated list accepted")
	}
	if hss, err := DecodeHalfspaces(two); err != nil || len(hss) != 2 {
		t.Fatalf("shortest honest list: %v, %d halfspaces", err, len(hss))
	}
}

// TestDecodeHyperplaneCountDoesNotWrap: a coefficient count of 2^29-1
// makes 8*(n+1) wrap to zero where int is 32 bits, so the length check
// passed and make asked for 4 GB — a fatal, unrecoverable out-of-memory
// on GOARCH=386 (CI's codec-386 job runs this there). The count is
// compared without multiplying.
func TestDecodeHyperplaneCountDoesNotWrap(t *testing.T) {
	for _, count := range [][]byte{{0x1F, 0xFF, 0xFF, 0xFF}, {0x3F, 0xFF, 0xFF, 0xFF}, {0xFF, 0xFF, 0xFF, 0xFF}} {
		src := append(append([]byte(nil), count...), make([]byte, 8)...)
		if _, err := DecodeHyperplane(src, nil); err == nil {
			t.Fatalf("count % x over 8 bytes accepted", count)
		}
		if _, err := decodeHalfspace(append([]byte{0}, src...)); err == nil {
			t.Fatalf("halfspace with count % x accepted", count)
		}
	}
}

// TestDecodeHalfspaceStrictByteIsCanonical: strictness is one bit in a
// byte. A decoder that read it as "== 1" accepted 7 as non-strict and
// re-encoded it as 0 — two encodings of one answer, which the wire
// codec's one-encoding invariant forbids.
func TestDecodeHalfspaceStrictByteIsCanonical(t *testing.T) {
	for _, strict := range []bool{false, true} {
		enc := Halfspace{H: Hyperplane{C: []float64{1.5}, B: -2}, Strict: strict}.Encode(nil)
		hs, err := decodeHalfspace(enc)
		if err != nil || hs.Strict != strict {
			t.Fatalf("strict=%v round trip: %+v, %v", strict, hs, err)
		}
		for _, b := range []byte{2, 7, 0x80, 0xFF} {
			forged := append([]byte(nil), enc...)
			forged[0] = b
			if hs, err := decodeHalfspace(forged); err == nil && !bytes.Equal(hs.Encode(nil), forged) {
				t.Fatalf("strictness byte %#x decodes to %+v, which encodes differently", b, hs)
			} else if err == nil {
				t.Fatalf("strictness byte %#x accepted", b)
			}
		}
	}
}

// TestEncodeReservesOnce: each encoder grows dst at most once, to the
// exact length its EncodedLen reports.
func TestEncodeReservesOnce(t *testing.T) {
	h := Hyperplane{C: []float64{1, 2, 3}, B: 4}
	hss := []Halfspace{{H: h}, {H: h, Strict: true}, {H: Hyperplane{B: 1}}}
	for name, c := range map[string]struct {
		enc  func() []byte
		size int
	}{
		"hyperplane": {func() []byte { return h.Encode(nil) }, h.EncodedLen()},
		"halfspace":  {func() []byte { return hss[1].Encode(nil) }, hss[1].EncodedLen()},
		"halfspaces": {func() []byte { return EncodeHalfspaces(nil, hss) }, HalfspacesEncodedLen(hss)},
	} {
		if got := len(c.enc()); got != c.size {
			t.Errorf("%s: EncodedLen %d, encoding is %d bytes", name, c.size, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.enc() }); allocs != 1 {
			t.Errorf("%s: %v allocations per encoding, want 1", name, allocs)
		}
	}
}

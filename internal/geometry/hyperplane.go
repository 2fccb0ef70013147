// Package geometry holds the values the I-tree partitions by:
// hyperplanes (function intersections), halfspaces (subdomain boundary
// constraints) and boxes (owner-specified query domains), with their
// canonical byte encodings.
package geometry

import (
	"encoding/binary"
	"math"

	"aqverify/internal/codec"
	"aqverify/internal/linalg"
)

// Point is a location in the function-variable domain (a vector of query
// weights in the paper's model).
type Point []float64

// Hyperplane is the zero set {X : C·X + B = 0}. In this codebase a
// hyperplane always arises as the difference of two record functions
// f_i - f_j, so C and B are the coefficient and bias differences.
type Hyperplane struct {
	C []float64
	B float64
}

// Dim returns the hyperplane's variable count.
func (h Hyperplane) Dim() int { return len(h.C) }

// Eval returns C·X + B.
func (h Hyperplane) Eval(x Point) float64 {
	return linalg.Dot(h.C, []float64(x)) + h.B
}

// Side reports which closed side of h the point x lies on: +1 when
// Eval(x) >= 0 ("above"), -1 otherwise ("below"). This matches the
// I-tree's branching rule.
func (h Hyperplane) Side(x Point) int {
	if h.Eval(x) >= 0 {
		return 1
	}
	return -1
}

// IsDegenerate reports whether the hyperplane has an all-zero normal
// vector, in which case it does not partition anything (the two functions
// are parallel — or identical when B is also zero).
func (h Hyperplane) IsDegenerate() bool {
	for _, c := range h.C {
		if c != 0 {
			return false
		}
	}
	return true
}

// Encode appends a canonical byte encoding of h to dst and returns the
// extended slice. The encoding is deterministic (big-endian IEEE-754 bit
// patterns), which makes it safe to feed into the hash functions that bind
// hyperplane identities into the IMH-tree.
func (h Hyperplane) Encode(dst []byte) []byte {
	// One exact reservation: every party re-encodes hyperplanes to hash
	// them, the verifying client once per path step and inequality.
	dst = reserve(dst, h.EncodedLen())
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(h.C)))
	for _, c := range h.C {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(h.B))
}

// reserve returns dst with room for n more bytes, allocating at most
// once and exactly: an explicit make, because the make that slices.Grow
// appends is only fused into the append — one allocation, not two —
// when the build is not race-instrumented.
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// EncodedLen returns len(h.Encode(nil)).
func (h Hyperplane) EncodedLen() int { return 4 + 8*(len(h.C)+1) }

// DecodeHyperplane parses exactly one hyperplane written by Encode: the
// bytes are the server's, so the coefficient count is bounded by the
// bytes present before anything is allocated for it, and a byte left
// over is refused.
func DecodeHyperplane(src []byte) (Hyperplane, error) {
	r := codec.Reader{Buf: src}
	h := readHyperplane(&r)
	if err := r.Done(); err != nil {
		return Hyperplane{}, err
	}
	return h, nil
}

func readHyperplane(r *codec.Reader) Hyperplane {
	c := make([]float64, r.Count("hyperplane coefficient", 8))
	for i := range c {
		c[i] = r.F64("hyperplane coefficient")
	}
	return Hyperplane{C: c, B: r.F64("hyperplane bias")}
}

// Halfspace is one closed or open side of a hyperplane:
//
//	Strict == false:  C·X + B >= 0
//	Strict == true:   C·X + B  > 0
//
// A subdomain is the intersection of the halfspaces accumulated along its
// I-tree path; the multi-signature scheme ships these to the client as
// "the set of inequality functions that determines the subdomain".
type Halfspace struct {
	H      Hyperplane
	Strict bool
}

// Contains reports whether x satisfies the halfspace, using tol as the
// slack for the strict case (a strictly-inside test up to float error).
func (hs Halfspace) Contains(x Point, tol float64) bool {
	v := hs.H.Eval(x)
	if hs.Strict {
		return v > -tol
	}
	return v >= -tol
}

// Negate returns the complementary halfspace: the complement of a closed
// halfspace is strict and vice versa.
func (hs Halfspace) Negate() Halfspace {
	neg := Hyperplane{C: linalg.Scale(-1, hs.H.C), B: -hs.H.B}
	return Halfspace{H: neg, Strict: !hs.Strict}
}

// Encode appends a canonical encoding of hs to dst.
func (hs Halfspace) Encode(dst []byte) []byte {
	dst = reserve(dst, hs.EncodedLen())
	if hs.Strict {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return hs.H.Encode(dst)
}

// EncodedLen returns len(hs.Encode(nil)).
func (hs Halfspace) EncodedLen() int { return 1 + hs.H.EncodedLen() }

// minHalfspaceLen is the shortest halfspace encoding: the strictness
// byte, a zero coefficient count and the bias.
const minHalfspaceLen = 1 + 4 + 8

// decodeHalfspace parses exactly one halfspace written by Encode.
func decodeHalfspace(src []byte) (Halfspace, error) {
	r := codec.Reader{Buf: src}
	hs := readHalfspace(&r)
	if err := r.Done(); err != nil {
		return Halfspace{}, err
	}
	return hs, nil
}

// readHalfspace reads the strictness byte as 0 or 1 and nothing else,
// so that every accepted encoding is the one Encode writes.
func readHalfspace(r *codec.Reader) Halfspace {
	strict := r.Bool("halfspace strictness")
	return Halfspace{H: readHyperplane(r), Strict: strict}
}

// EncodeHalfspaces appends a canonical encoding of a halfspace list: a
// count followed by each element. The order is preserved (the I-tree path
// order), so equal subdomains encode equally.
func EncodeHalfspaces(dst []byte, hss []Halfspace) []byte {
	dst = reserve(dst, HalfspacesEncodedLen(hss))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(hss)))
	for _, hs := range hss {
		dst = hs.Encode(dst)
	}
	return dst
}

// HalfspacesEncodedLen returns len(EncodeHalfspaces(nil, hss)).
func HalfspacesEncodedLen(hss []Halfspace) int {
	n := 4
	for _, hs := range hss {
		n += hs.EncodedLen()
	}
	return n
}

// DecodeHalfspaces parses exactly one list written by EncodeHalfspaces,
// its count bounded by the bytes that follow before it is allocated for.
func DecodeHalfspaces(src []byte) ([]Halfspace, error) {
	r := codec.Reader{Buf: src}
	out := make([]Halfspace, r.Count("halfspace", minHalfspaceLen))
	for i := range out {
		out[i] = readHalfspace(&r)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Package geometry models the domain-partitioning machinery behind the
// I-tree: hyperplanes (function intersections), halfspaces (subdomain
// boundary constraints), boxes (owner-specified query domains), and the
// Space abstraction with two implementations — an exact rational 1-D space
// and an LP-backed n-dimensional space.
package geometry

import (
	"encoding/binary"
	"fmt"
	"math"

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

// DecodeHyperplane parses a hyperplane previously written by Encode,
// returning the remaining bytes.
func DecodeHyperplane(src []byte) (Hyperplane, []byte, error) {
	if len(src) < 4 {
		return Hyperplane{}, nil, fmt.Errorf("geometry: hyperplane encoding truncated (len %d)", len(src))
	}
	n := int(binary.BigEndian.Uint32(src[:4]))
	src = src[4:]
	// Compared without multiplying: 8*(n+1) wraps a 32-bit int for a
	// forged count, and the make below then asks for gigabytes.
	if n < 0 || len(src) < 8 || n > (len(src)-8)/8 {
		return Hyperplane{}, nil, fmt.Errorf("geometry: hyperplane encoding truncated: need %d coefficients", n)
	}
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = math.Float64frombits(binary.BigEndian.Uint64(src[:8]))
		src = src[8:]
	}
	b := math.Float64frombits(binary.BigEndian.Uint64(src[:8]))
	return Hyperplane{C: c, B: b}, src[8:], nil
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

// DecodeHalfspace parses a halfspace written by Encode. The strictness
// byte is 0 or 1 and nothing else, so that every accepted encoding is the
// one Encode writes.
func DecodeHalfspace(src []byte) (Halfspace, []byte, error) {
	if len(src) < 1 {
		return Halfspace{}, nil, fmt.Errorf("geometry: halfspace encoding empty")
	}
	if src[0] > 1 {
		return Halfspace{}, nil, fmt.Errorf("geometry: halfspace strictness byte %#x is neither 0 nor 1", src[0])
	}
	h, rest, err := DecodeHyperplane(src[1:])
	if err != nil {
		return Halfspace{}, nil, err
	}
	return Halfspace{H: h, Strict: src[0] == 1}, rest, nil
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

// DecodeHalfspaces parses a list written by EncodeHalfspaces.
func DecodeHalfspaces(src []byte) ([]Halfspace, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("geometry: halfspace list truncated")
	}
	count := binary.BigEndian.Uint32(src[:4])
	src = src[4:]
	// The count is the sender's: bound it by the bytes that follow before
	// allocating for it.
	if uint64(count) > uint64(len(src)/minHalfspaceLen) {
		return nil, nil, fmt.Errorf("geometry: halfspace count %d exceeds the %d bytes present", count, len(src))
	}
	n := int(count)
	out := make([]Halfspace, 0, n)
	for i := 0; i < n; i++ {
		hs, rest, err := DecodeHalfspace(src)
		if err != nil {
			return nil, nil, fmt.Errorf("geometry: halfspace %d: %w", i, err)
		}
		out = append(out, hs)
		src = rest
	}
	return out, src, nil
}

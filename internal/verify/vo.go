package verify

import (
	"fmt"

	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

// BoundaryKind discriminates a window boundary: a real record or one of
// the sentinel tokens.
type BoundaryKind uint8

const (
	// BoundaryRecord is an ordinary neighboring record.
	BoundaryRecord BoundaryKind = iota
	// BoundaryMin is the f_min token (the window starts at the list
	// head).
	BoundaryMin
	// BoundaryMax is the f_max token (the window ends at the list tail).
	BoundaryMax
)

// Boundary is one immediate neighbor of the result window.
type Boundary struct {
	Kind BoundaryKind
	Rec  record.Record // valid only when Kind == BoundaryRecord
}

// PathStep is one IMH-tree hop in a one-signature verification object:
// the intersection hyperplane at the node, which child the search took,
// and the digest of the sibling (untaken) child. Steps are ordered from
// the root down to the subdomain leaf.
type PathStep struct {
	Hp        geometry.Hyperplane
	TookAbove bool
	Sibling   hashing.Digest
}

// VO is the verification object accompanying a query result (paper §3.2).
// The function part (ListLen, Start, boundaries, FProof) reconstructs the
// subdomain's FMH root; the subdomain part is either the IMH path
// (one-signature) or the inequality set (multi-signature); Signature is
// the data owner's signature anchoring it all.
type VO struct {
	Mode Mode

	// ListLen is the number of records in the sorted function list (the
	// database size). It is authenticated whenever a sentinel boundary
	// is part of the proven range; see fmh for the precise guarantee.
	ListLen int
	// Start is the sorted position of the first result record; for an
	// empty result it is the insertion point of the query window.
	Start int
	// Left and Right are the records (or sentinels) immediately
	// neighboring the result window.
	Left, Right Boundary
	// FProof is the FMH-tree range proof for [left, window, right].
	FProof Proof

	// Path is the one-signature IMH search path (root to leaf).
	Path []PathStep
	// Ineqs is the multi-signature subdomain inequality set.
	Ineqs []geometry.Halfspace

	// Signature is the signed IMH root (one-signature) or the signed
	// subdomain digest (multi-signature).
	Signature []byte
}

// Answer bundles a query result with its verification object — what the
// server transmits to the user.
type Answer struct {
	Query   query.Query
	Records []record.Record
	VO      VO
}

// Clone deep-copies the answer, so tamper simulations can mutate a copy
// without corrupting the server's structures.
func (a *Answer) Clone() *Answer {
	cp := &Answer{Query: a.Query, VO: a.VO}
	cp.Query.X = append(geometry.Point(nil), a.Query.X...)
	cp.Records = make([]record.Record, len(a.Records))
	for i, r := range a.Records {
		cp.Records[i] = r.Clone()
	}
	if a.VO.Left.Kind == BoundaryRecord {
		cp.VO.Left.Rec = a.VO.Left.Rec.Clone()
	}
	if a.VO.Right.Kind == BoundaryRecord {
		cp.VO.Right.Rec = a.VO.Right.Rec.Clone()
	}
	cp.VO.FProof.Hashes = append([]hashing.Digest(nil), a.VO.FProof.Hashes...)
	cp.VO.Path = append([]PathStep(nil), a.VO.Path...)
	cp.VO.Ineqs = append([]geometry.Halfspace(nil), a.VO.Ineqs...)
	cp.VO.Signature = append([]byte(nil), a.VO.Signature...)
	return cp
}

// boundaryDigest computes the FMH leaf digest a boundary contributes.
func boundaryDigest(h *hashing.Hasher, b Boundary, listLen int) (hashing.Digest, error) {
	switch b.Kind {
	case BoundaryRecord:
		return h.Leaf(b.Rec), nil
	case BoundaryMin:
		return h.SentinelMin(listLen), nil
	case BoundaryMax:
		return h.SentinelMax(listLen), nil
	default:
		return hashing.Digest{}, fmt.Errorf("verify: unknown boundary kind %d", b.Kind)
	}
}

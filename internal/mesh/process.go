package mesh

import (
	"fmt"

	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// PairProof authenticates one consecutive pair of the result chain: the
// signed run's domain interval plus the owner's signature over
// H(TagMeshPair | d_a | d_b | enc(Lo,Hi)).
type PairProof struct {
	Lo, Hi float64
	Sig    []byte
}

// VO is the mesh verification object: the window's boundary records plus
// one PairProof per consecutive pair of [left, result..., right] — |q|+1
// signatures in total, the cost that dominates the paper's Fig 7.
type VO struct {
	ListLen     int
	Left, Right verify.Boundary
	Pairs       []PairProof
}

// Size is the verification object's byte size, the paper's Fig 8 metric,
// counted field by field: a u32 list length, two tagged boundaries, a
// u32 pair count and, per pair, two f64 bounds and a u32-prefixed
// signature.
func (vo *VO) Size() int {
	n := 4 + boundarySize(vo.Left) + boundarySize(vo.Right) + 4
	for _, p := range vo.Pairs {
		n += 8 + 8 + 4 + len(p.Sig)
	}
	return n
}

func boundarySize(b verify.Boundary) int {
	if b.Kind == verify.BoundaryRecord {
		return 1 + 4 + b.Rec.EncodedLen()
	}
	return 1
}

// Answer bundles a query result with its verification object.
type Answer struct {
	Query   query.Query
	Records []record.Record
	VO      VO
}

// Clone deep-copies the answer for tamper simulations.
func (a *Answer) Clone() *Answer {
	cp := &Answer{Query: a.Query, VO: a.VO}
	cp.Query.X = append(geometry.Point(nil), a.Query.X...)
	cp.Records = make([]record.Record, len(a.Records))
	for i, r := range a.Records {
		cp.Records[i] = r.Clone()
	}
	if a.VO.Left.Kind == verify.BoundaryRecord {
		cp.VO.Left.Rec = a.VO.Left.Rec.Clone()
	}
	if a.VO.Right.Kind == verify.BoundaryRecord {
		cp.VO.Right.Rec = a.VO.Right.Rec.Clone()
	}
	cp.VO.Pairs = make([]PairProof, len(a.VO.Pairs))
	for i, p := range a.VO.Pairs {
		cp.VO.Pairs[i] = PairProof{Lo: p.Lo, Hi: p.Hi, Sig: append([]byte(nil), p.Sig...)}
	}
	return cp
}

// Process executes an analytic query against the mesh. The subdomain
// lookup is a linear scan over the cells (counted on the counter — the
// paper's Fig 6 cost), followed by window selection on the cell's sorted
// list and one signed-run lookup per consecutive result pair.
func (m *Mesh) Process(q query.Query, ctr *metrics.Counter) (*Answer, error) {
	if err := q.Validate(1); err != nil {
		return nil, err
	}
	if !m.domain.Contains(q.X) {
		return nil, fmt.Errorf("mesh: function input %v outside the owner-specified domain", q.X)
	}

	// Linear cell scan: the mesh has no index over its subdomains.
	x := q.X[0]
	sub := m.NumSubdomains() - 1
	for k := 0; k < m.NumSubdomains(); k++ {
		ctr.AddCells(1)
		if x < m.edges[k+1] {
			sub = k
			break
		}
	}

	perm := itree.SortAtExact(m.fs, m.witnesses[sub])
	n := len(perm)
	w, err := query.SelectWindow(n, func(pos int) float64 { return m.fs[perm[pos]].Eval(q.X) }, q, ctr)
	if err != nil {
		return nil, err
	}

	vo := VO{ListLen: n}
	chain := make([]int, 0, w.Count+2)
	if w.Start == 0 {
		vo.Left = verify.Boundary{Kind: verify.BoundaryMin}
		chain = append(chain, EntryMin)
	} else {
		rec := m.table.Records[perm[w.Start-1]]
		vo.Left = verify.Boundary{Kind: verify.BoundaryRecord, Rec: rec}
		chain = append(chain, perm[w.Start-1])
	}
	records := make([]record.Record, 0, w.Count)
	for pos := w.Start; pos < w.End(); pos++ {
		records = append(records, m.table.Records[perm[pos]])
		chain = append(chain, perm[pos])
	}
	if w.End() == n {
		vo.Right = verify.Boundary{Kind: verify.BoundaryMax}
		chain = append(chain, EntryMax)
	} else {
		rec := m.table.Records[perm[w.End()]]
		vo.Right = verify.Boundary{Kind: verify.BoundaryRecord, Rec: rec}
		chain = append(chain, perm[w.End()])
	}

	vo.Pairs = make([]PairProof, 0, len(chain)-1)
	for i := 0; i+1 < len(chain); i++ {
		run, ok := m.findRun(chain[i], chain[i+1], sub, ctr)
		if !ok {
			return nil, fmt.Errorf("mesh: no signed run for pair (%d,%d) in subdomain %d", chain[i], chain[i+1], sub)
		}
		vo.Pairs = append(vo.Pairs, PairProof{Lo: run.Lo, Hi: run.Hi, Sig: run.Sig})
	}
	return &Answer{Query: q, Records: records, VO: vo}, nil
}

// Verify checks a mesh answer: every consecutive pair's digest must carry
// a valid owner signature whose run interval contains the query's
// function input, and the authenticated window must satisfy the query
// semantics. The counter observes the |q|+1 signature verifications and
// the (few) hashes — the costs of the paper's Fig 7.
func Verify(pub PublicParams, q query.Query, recs []record.Record, vo *VO, ctr *metrics.Counter) error {
	if pub.Verifier == nil {
		return fmt.Errorf("mesh: PublicParams.Verifier is required")
	}
	if vo == nil {
		return fmt.Errorf("%w: missing verification object", verify.ErrVerification)
	}
	if err := q.Validate(pub.Template.Dim()); err != nil {
		return fmt.Errorf("%w: invalid query: %v", verify.ErrVerification, err)
	}
	if pub.Template.Dim() != 1 {
		return fmt.Errorf("mesh: univariate only")
	}
	m := len(recs)
	if len(vo.Pairs) != m+1 {
		return fmt.Errorf("%w: %d pair proofs for %d records", verify.ErrVerification, len(vo.Pairs), m)
	}
	if vo.Left.Kind == verify.BoundaryMax || vo.Right.Kind == verify.BoundaryMin {
		return fmt.Errorf("%w: boundary sentinel on the wrong side", verify.ErrVerification)
	}
	if vo.ListLen < m {
		return fmt.Errorf("%w: claimed list length %d below result size %d", verify.ErrVerification, vo.ListLen, m)
	}

	h := hashing.New(ctr)
	sentinel := func(kind verify.BoundaryKind) hashing.Digest {
		if kind == verify.BoundaryMin {
			return h.SentinelMin(vo.ListLen)
		}
		return h.SentinelMax(vo.ListLen)
	}
	digests := make([]hashing.Digest, 0, m+2)
	if vo.Left.Kind == verify.BoundaryRecord {
		digests = append(digests, h.Record(vo.Left.Rec))
	} else {
		digests = append(digests, sentinel(vo.Left.Kind))
	}
	for _, r := range recs {
		digests = append(digests, h.Record(r))
	}
	if vo.Right.Kind == verify.BoundaryRecord {
		digests = append(digests, h.Record(vo.Right.Rec))
	} else {
		digests = append(digests, sentinel(vo.Right.Kind))
	}

	x := q.X[0]
	for i, p := range vo.Pairs {
		if x < p.Lo || x > p.Hi {
			return fmt.Errorf("%w: pair %d's run interval [%v,%v] excludes the function input %v",
				verify.ErrVerification, i, p.Lo, p.Hi, x)
		}
		d := h.MeshPair(digests[i], digests[i+1], runEnc(p.Lo, p.Hi))
		ctr.AddVerify(1)
		if err := pub.Verifier.Verify(d[:], p.Sig); err != nil {
			return fmt.Errorf("%w: pair %d signature: %v", verify.ErrVerification, i, err)
		}
	}

	return verify.CheckWindowSemantics(pub.Template, q, recs, vo.Left, vo.Right, vo.ListLen)
}

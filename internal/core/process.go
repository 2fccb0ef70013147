package core

import (
	"fmt"

	"aqverify/internal/itree"
	"aqverify/internal/metrics"
	"aqverify/internal/mhtree"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// Process executes an analytic query and constructs its verification
// object (paper §3.2): ProcessInto a fresh answer.
func (t *Tree) Process(q query.Query, ctr *metrics.Counter) (*verify.Answer, error) {
	a := new(verify.Answer)
	if err := t.ProcessInto(a, q, ctr); err != nil {
		return nil, err
	}
	return a, nil
}

// ProcessInto executes an analytic query into a (paper §3.2): search the
// IMH-tree for the subdomain containing the query's function input,
// locate the result window on the subdomain's sorted function list, and
// assemble the window's boundary records plus the FMH range proof and the
// mode's subdomain evidence. It overwrites every field of a, so the
// result equals Process's whatever a held, reusing the arrays behind
// a.Records, a.VO.FProof.Hashes and a.VO.Path while they are large
// enough. On error a holds nothing usable.
//
// The subdomain's FMH-tree is its sorted list (fmh.List names the record
// under every leaf), so the walk is O(log n + k) for every tree —
// univariate, multivariate, loaded from an artifact — and reads only
// immutable tree state: the window selection scores the positions it
// probes through one fmh.Reader, each probe resuming the last one's path,
// and the window and its two neighbors are read in one pass. No
// permutation is materialized and nothing is locked.
//
// The counter observes the traversal costs the paper plots in Fig 6:
// IMH nodes on the search path, binary-search comparisons, and FMH nodes
// visited while building the proof.
func (t *Tree) ProcessInto(a *verify.Answer, q query.Query, ctr *metrics.Counter) error {
	if err := q.Validate(t.template.Dim()); err != nil {
		return err
	}
	if !t.domain.Contains(q.X) {
		return fmt.Errorf("core: function input %v outside the owner-specified domain", q.X)
	}

	a.Query = q
	vo := &a.VO
	vo.Mode = t.mode
	// Only the one-signature VO carries the IMH path; the multi-signature
	// search records nothing.
	path := &vo.Path
	*path = (*path)[:0]
	var hop func(n *itree.Node, tookAbove bool)
	if t.mode == verify.OneSignature {
		hop = func(n *itree.Node, tookAbove bool) {
			sibling := n.Below
			if !tookAbove {
				sibling = n.Above
			}
			// Grown by hand: append would move a caller's stack array to the heap.
			if len(*path) == cap(*path) {
				*path = append(make([]verify.PathStep, 0, 2*cap(*path)+8), *path...)
			}
			*path = (*path)[:len(*path)+1]
			(*path)[len(*path)-1] = verify.PathStep{Hp: n.Int.H, TookAbove: tookAbove, Sibling: sibling.Hash}
		}
	}
	si := t.subs[t.itree.Search(q.X, ctr, hop).ID]
	if len(vo.Path) == 0 {
		vo.Path = nil
	}
	switch t.mode {
	case verify.OneSignature:
		vo.Ineqs, vo.Signature = nil, t.rootSig
	case verify.MultiSignature:
		vo.Ineqs, vo.Signature = si.Ineqs, si.Sig
	default:
		return fmt.Errorf("core: unknown mode %v", t.mode)
	}

	list := si.List
	rd := list.Reader()
	w, err := query.SelectWindow(list.N, func(pos int) float64 {
		return t.fs[rd.At(pos)].Eval(q.X)
	}, q, ctr)
	if err != nil {
		return err
	}
	vo.ListLen, vo.Start = list.N, w.Start

	// The window with its two neighbors, as record indices; a neighbor
	// past either end of the list is a sentinel.
	var idx [66]int
	recs, err := list.Window(idx[:0], w.Start, w.Count)
	if err != nil {
		return err
	}
	vo.Left, vo.Right = t.boundary(recs[0], verify.BoundaryMin), t.boundary(recs[len(recs)-1], verify.BoundaryMax)
	if cap(a.Records) < w.Count || a.Records == nil {
		a.Records = make([]record.Record, w.Count)
	}
	a.Records = a.Records[:w.Count]
	for i, rec := range recs[1 : len(recs)-1] {
		a.Records[i] = t.table.Records[rec]
	}
	return list.BoundaryProof(&vo.FProof, w.Start, w.Count, ctr)
}

// boundary is the window neighbor at record index rec, or the sentinel
// of the given kind when the window reaches that end of the list.
func (t *Tree) boundary(rec int, sentinel verify.BoundaryKind) verify.Boundary {
	if rec == mhtree.NoRecord {
		return verify.Boundary{Kind: sentinel}
	}
	return verify.Boundary{Kind: verify.BoundaryRecord, Rec: t.table.Records[rec]}
}

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
// object (paper §3.2): search the IMH-tree for the subdomain containing
// the query's function input, locate the result window on the subdomain's
// sorted function list, and assemble the window's boundary records plus
// the FMH range proof and the mode's subdomain evidence.
//
// The subdomain's FMH-tree is its sorted list (fmh.List names the record
// under every leaf), so the walk is O(log n + k) for every tree —
// univariate, multivariate, loaded from an artifact — and reads only
// immutable tree state: the window selection scores the positions it
// probes by one descent each, and one in-order pass reads the window and
// its two neighbors. No permutation is materialized and nothing is
// locked.
//
// The counter observes the traversal costs the paper plots in Fig 6:
// IMH nodes on the search path, binary-search comparisons, and FMH nodes
// visited while building the proof.
func (t *Tree) Process(q query.Query, ctr *metrics.Counter) (*verify.Answer, error) {
	if err := q.Validate(t.template.Dim()); err != nil {
		return nil, err
	}
	if !t.domain.Contains(q.X) {
		return nil, fmt.Errorf("core: function input %v outside the owner-specified domain", q.X)
	}

	a := &verify.Answer{Query: q, VO: verify.VO{Mode: t.mode}}
	vo := &a.VO
	// Only the one-signature VO carries the IMH path; the multi-signature
	// search records nothing.
	var hop func(n *itree.Node, tookAbove bool)
	if t.mode == verify.OneSignature {
		hop = func(n *itree.Node, tookAbove bool) {
			sibling := n.Below
			if !tookAbove {
				sibling = n.Above
			}
			vo.Path = append(vo.Path, verify.PathStep{Hp: n.Int.H, TookAbove: tookAbove, Sibling: sibling.Hash})
		}
	}
	si := t.subs[t.itree.Search(q.X, ctr, hop).ID]
	switch t.mode {
	case verify.OneSignature:
		vo.Signature = t.rootSig
	case verify.MultiSignature:
		vo.Ineqs = si.Ineqs
		vo.Signature = si.Sig
	default:
		return nil, fmt.Errorf("core: unknown mode %v", t.mode)
	}

	list := si.List
	w, err := query.SelectWindow(list.N, func(pos int) float64 {
		return t.fs[list.RecordAt(pos)].Eval(q.X)
	}, q, ctr)
	if err != nil {
		return nil, err
	}
	vo.ListLen, vo.Start = list.N, w.Start

	// The window with its two neighbors, as record indices; a neighbor
	// past either end of the list is a sentinel.
	recs, err := list.Window(make([]int, 0, w.Count+2), w.Start, w.Count)
	if err != nil {
		return nil, err
	}
	vo.Left, vo.Right = t.boundary(recs[0], verify.BoundaryMin), t.boundary(recs[len(recs)-1], verify.BoundaryMax)
	a.Records = make([]record.Record, w.Count)
	for i, rec := range recs[1 : len(recs)-1] {
		a.Records[i] = t.table.Records[rec]
	}

	if vo.FProof, err = list.BoundaryProof(w.Start, w.Count, ctr); err != nil {
		return nil, err
	}
	return a, nil
}

// boundary is the window neighbor at record index rec, or the sentinel
// of the given kind when the window reaches that end of the list.
func (t *Tree) boundary(rec int, sentinel verify.BoundaryKind) verify.Boundary {
	if rec == mhtree.NoRecord {
		return verify.Boundary{Kind: sentinel}
	}
	return verify.Boundary{Kind: verify.BoundaryRecord, Rec: t.table.Records[rec]}
}

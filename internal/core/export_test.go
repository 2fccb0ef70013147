package core

import (
	"aqverify/internal/query"
	"aqverify/internal/verify"
)

// ProveWindow is the lying server of this directory's external tests:
// t's answer to q with the window moved to count records from sorted
// position start of the subdomain's list. Everything but the window is
// the honest answer's (path, signature, inequalities), and the window's
// records, boundaries and FMH range proof come from the calls
// ProcessInto makes (fmh.List.Window, BoundaryProof), so every Merkle
// and signature check passes and only the client's semantic checks can
// refuse it.
var ProveWindow = (*Tree).proveWindow

func (t *Tree) proveWindow(q query.Query, start, count int) (*verify.Answer, error) {
	a, err := t.Process(q, nil)
	if err != nil {
		return nil, err
	}
	list := t.subs[t.itree.Search(q.X, nil, nil).ID].List
	recs, err := list.Window(nil, start, count)
	if err != nil {
		return nil, err
	}
	a.VO.Start = start
	a.VO.Left, a.VO.Right = t.boundary(recs[0], verify.BoundaryMin), t.boundary(recs[len(recs)-1], verify.BoundaryMax)
	a.Records = a.Records[:0]
	for _, rec := range recs[1 : len(recs)-1] {
		a.Records = append(a.Records, t.table.Records[rec])
	}
	return a, list.BoundaryProof(&a.VO.FProof, start, count, nil)
}

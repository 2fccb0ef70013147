package query

import (
	"sort"

	"aqverify/internal/funcs"
	"aqverify/internal/record"
)

// Result is the outcome of the trusted reference executor: the matching
// records in ascending score order, plus their scores.
type Result struct {
	Records []record.Record
	Scores  []float64
	Window  Window
}

// Exec runs q directly against the raw table under the template — the
// trusted computation a user could do locally if it had the whole
// database. It is the oracle every verified result is compared against in
// tests, and deliberately shares SelectWindow with the production paths
// so the semantics cannot drift apart.
func Exec(tbl record.Table, tpl funcs.Template, q Query) (Result, error) {
	fs, err := tpl.InterpretTable(tbl)
	if err != nil {
		return Result{}, err
	}
	if err := q.Validate(tpl.Dim()); err != nil {
		return Result{}, err
	}
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(fs))
	for i, f := range fs {
		ss[i] = scored{idx: i, score: f.Eval(q.X)}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score < ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	w, err := SelectWindow(len(ss), func(pos int) float64 { return ss[pos].score }, q, nil)
	if err != nil {
		return Result{}, err
	}
	out := Result{Window: w}
	for _, s := range ss[w.Start:w.End()] {
		out.Records = append(out.Records, tbl.Records[s.idx])
		out.Scores = append(out.Scores, s.score)
	}
	return out, nil
}

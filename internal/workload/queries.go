package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

// QueryConfig configures the query-workload generator.
type QueryConfig struct {
	Count int
	Seed  int64
	// K is the k of top-k/KNN queries.
	K int
	// ResultSize, when nonzero, makes range queries target exactly this
	// many records (the |q| knob of Figs 6d-8a); top-k and KNN use it as
	// k when K is zero.
	ResultSize int
	// Margin shrinks the sampled X away from the domain edges by this
	// fraction (default 2%), avoiding boundary-degenerate queries.
	Margin float64
}

// randomX samples a function input strictly inside the domain.
func randomX(rng *rand.Rand, dom geometry.Box, margin float64) geometry.Point {
	if margin == 0 {
		margin = 0.02
	}
	x := make(geometry.Point, dom.Dim())
	for d := range x {
		w := dom.Hi[d] - dom.Lo[d]
		// Every product is rounded on its own (no fused multiply-add),
		// so the inputs are the same bytes on every CPU.
		x[d] = dom.Lo[d] + float64(w*(margin+float64((1-float64(2*margin))*rng.Float64())))
	}
	return x
}

// TopK generates top-k queries with random function inputs.
func TopK(dom geometry.Box, cfg QueryConfig) []query.Query {
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k == 0 {
		k = cfg.ResultSize
	}
	if k == 0 {
		k = 3
	}
	out := make([]query.Query, cfg.Count)
	for i := range out {
		out[i] = query.NewTopK(randomX(rng, dom, cfg.Margin), k)
	}
	return out
}

// KNN generates k-nearest-neighbor queries whose targets fall inside the
// score distribution at the sampled input.
func KNN(tbl record.Table, tpl funcs.Template, dom geometry.Box, cfg QueryConfig) ([]query.Query, error) {
	fs, err := tpl.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k == 0 {
		k = cfg.ResultSize
	}
	if k == 0 {
		k = 3
	}
	out := make([]query.Query, cfg.Count)
	for i := range out {
		x := randomX(rng, dom, cfg.Margin)
		// Target the score of a random record, perturbed slightly, so
		// queries hit the populated region.
		y := fs[rng.Intn(len(fs))].Eval(x) * (1 + float64(rng.NormFloat64()*0.01))
		out[i] = query.NewKNN(x, k, y)
	}
	return out, nil
}

// Ranges generates range queries. With ResultSize set, each query's
// bounds are placed at score quantiles so the result contains exactly
// that many records; otherwise bounds cover a random score band.
func Ranges(tbl record.Table, tpl funcs.Template, dom geometry.Box, cfg QueryConfig) ([]query.Query, error) {
	fs, err := tpl.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	if cfg.ResultSize > tbl.Len() {
		return nil, fmt.Errorf("workload: result size %d exceeds table size %d", cfg.ResultSize, tbl.Len())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]query.Query, cfg.Count)
	scores := make([]float64, len(fs))
	for i := range out {
		x := randomX(rng, dom, cfg.Margin)
		for j, f := range fs {
			scores[j] = f.Eval(x)
		}
		sort.Float64s(scores)
		n := len(scores)
		if cfg.ResultSize > 0 {
			m := cfg.ResultSize
			start := 0
			if n > m {
				start = rng.Intn(n - m + 1)
			}
			l, u := scores[start], scores[start+m-1]
			// Nudge the bounds off the exact scores so ties at the
			// boundary cannot blur the target size.
			l = prevValue(scores, start, l)
			u = nextValue(scores, start+m-1, u)
			out[i] = query.NewRange(x, l, u)
		} else {
			a, b := scores[rng.Intn(n)], scores[rng.Intn(n)]
			if a > b {
				a, b = b, a
			}
			out[i] = query.NewRange(x, a, b)
		}
	}
	return out, nil
}

// prevValue returns a bound strictly between scores[i-1] and scores[i]
// (or just below scores[i] at the head).
func prevValue(scores []float64, i int, v float64) float64 {
	if i == 0 {
		return v - 1
	}
	return (scores[i-1] + v) / 2
}

// nextValue returns a bound strictly between scores[i] and scores[i+1]
// (or just above at the tail).
func nextValue(scores []float64, i int, v float64) float64 {
	if i == len(scores)-1 {
		return v + 1
	}
	return (v + scores[i+1]) / 2
}

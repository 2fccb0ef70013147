package bench

import (
	"context"

	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// Ablations over design choices the paper leaves open (DESIGN.md §3).
// Each row is handed its variants built and probes them with the same
// few queries.

// probe answers the queries on the tree and returns the mean IMH nodes
// visited and the mean VO wire size.
func probe(t *core.Tree, qs []query.Query) (nodes, voBytes float64, err error) {
	var ctr metrics.Counter
	var vo int
	for _, q := range qs {
		ans, err := t.Process(q, &ctr)
		if err != nil {
			return 0, 0, err
		}
		vo += wire.VOSizeIFMH(ans)
	}
	k := float64(len(qs))
	return float64(ctr.NodesVisited) / k, float64(vo) / k, nil
}

// literalRow is A1: what the persistent FMH forest (Merkle sharing +
// per-boundary swaps) saves against the paper's literal layout, one
// from-scratch FMH-tree per subdomain. The literal side needs no build:
// a fresh list over n records has exactly 2(n+2)−1 nodes, so the row is
// a pure function of the one fixture's counts.
func literalRow(_ context.Context, _ *Harness, p point, b []*built) ([]string, error) {
	s := b[0].Stats()[0]
	literal := s.Subdomains * (2*(p.n+2) - 1)
	return []string{fmtInt(p.n), fmtInt(s.Subdomains),
		fmtInt(s.FMHNodes), fmtInt(literal),
		fmtBytes(s.ApproxBytes), fmtBytes(s.ApproxBytes + (literal-s.FMHNodes)*core.BytesPerFMHNode)}, nil
}

// variantRow is the body A3 and A4 share: one built variant, probed with
// top-3 queries, reported as subdomains, one structural count of the
// figure's choosing, search cost and VO size. Their build clock is
// BenchmarkBuildParallel.
func variantRow(lead string, b *built, structural int, qs []query.Query) ([]string, error) {
	nodes, vo, err := probe(b.Tree, qs)
	if err != nil {
		return nil, err
	}
	return []string{lead, fmtInt(b.Tree.NumSubdomains()), fmtInt(structural),
		fmtF(nodes), fmtBytes(int(vo))}, nil
}

// distributionRow is A3 — attribute-distribution sensitivity. The paper
// evaluates one unnamed synthetic distribution; this table shows how the
// structure and query costs react to the standard top-k workload family
// (uniform, gaussian, correlated, anti-correlated, clustered) at a fixed
// n. The domain-sizing knob keeps the target density constant, so
// differences expose genuinely distribution-driven behaviour (crossing
// concentration, run lengths) rather than raw intersection counts.
func distributionRow(_ context.Context, h *Harness, p point, b []*built) ([]string, error) {
	qs := workload.TopK(b[0].domain, workload.QueryConfig{Count: h.Cfg.Reps, Seed: h.Cfg.Seed, K: 3})
	return variantRow(p.arm, b[0], b[0].Stats()[0].TotalSwaps, qs)
}

// dimensionN is A4's fixed table size: small enough that d = 3 builds.
const dimensionN = 10

// dimensionRow is A4 — the variable-count (dimension) sweep. The paper's
// overhead analysis (§4.2) puts the subdomain count at O(n^{2d}) for
// d-variable linear functions; this table makes the blowup concrete on
// the LP-backed multivariate path: at a fixed (small) n, each added
// weight multiplies the subdomain count and the construction cost, while
// the per-query traversal and VO size stay modest — the asymmetry the
// IFMH-tree is designed around.
//
// One family across dimensions: anti-correlated scalar-product records
// over [0.05,1]^d. Anti-correlation maximizes rank crossings (the
// adversarial case of the top-k literature), so the arrangement growth
// in d is visible even at small n. d = 1 exercises the exact rational
// fast path; d >= 2 the LP-backed polytope space.
func dimensionRow(_ context.Context, h *Harness, p point, b []*built) ([]string, error) {
	d := p.k
	// Queries at a deterministic spread of interior weights.
	qs := make([]query.Query, h.Cfg.Reps)
	for i := range qs {
		x := make(geometry.Point, d)
		for j := range x {
			x[j] = 0.1 + 0.8*float64((i*7+j*3)%10)/10
		}
		qs[i] = query.NewTopK(x, 3)
	}
	return variantRow(fmtInt(d), b[0], b[0].Tree.Depth(), qs)
}

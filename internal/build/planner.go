package build

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"aqverify/internal/itree"
	"aqverify/internal/shard"
)

// PlanRequest carries a planner's inputs: the spec, the requested shard
// count and axis, the caller's worker bound, and — when the caller has
// already enumerated it (Outsource does, for univariate sharded builds,
// and then reuses the same list for the shard build itself) — the
// whole-domain pairwise intersection list. Inters is nil for standalone
// planner calls (e.g. vqgen's plan preview); planners that need the
// breakpoint distribution then derive it themselves.
type PlanRequest struct {
	Spec    Spec
	K, Axis int
	Workers int
	Inters  []itree.Intersection
}

// Planner places the K-1 interior cuts of a WithShards request.
// Planners must be deterministic in the spec: the multi-process
// deployment relies on every shard server deriving the same plan from
// the same data flags.
type Planner func(ctx context.Context, req PlanRequest) (shard.Plan, error)

// EvenCuts is the default planner: k equally sized sub-boxes along the
// axis, regardless of where the data's intersections fall.
func EvenCuts(_ context.Context, req PlanRequest) (shard.Plan, error) {
	return shard.NewPlan(req.Spec.Domain, req.Axis, req.K)
}

// maxExactPairs bounds the pair count up to which QuantileCuts places
// its cuts on the exact breakpoints; above it the breakpoint
// distribution is estimated from a fixed-seed pair sample (deterministic
// for a given table), whether or not the request carries the
// enumeration.
const maxExactPairs = 1 << 21

// quantileSample is the pair-sample size of the estimated path.
const quantileSample = 200_000

// QuantileCuts places the cuts at the k-quantiles of the pairwise
// breakpoint distribution along the domain, so that each sub-box owns
// roughly the same number of intersections — and therefore roughly the
// same number of subdomains, the S that drives per-shard build time,
// structure size and multi-signature count. Even cuts leave a skewed
// (e.g. clustered) workload with one overloaded shard; quantile cuts
// rebalance it without touching routing or verification, since any
// strictly ascending interior cut list is a valid shard.Plan.
//
// The cuts are a function of the spec alone — a vqgen -plan preview
// and the Outsource that follows it must derive the same plan. Up to maxExactPairs the breakpoints are exact: from
// req.Inters when the caller supplies it (a linear pass; Outsource
// enumerates once and shares the list with the shard build), otherwise
// via the same worker-sharded scan the tree build uses
// (itree.Pairs1DCtx, so the margin and hyperplane conventions stay in
// one place). Beyond the bound the distribution is always estimated
// from a deterministic fixed-seed pair sample, req.Inters or not — the
// cuts are a placement heuristic, so sampling precision is advisory.
// Univariate templates only; for multivariate specs the breakpoint
// density along one axis is not defined and QuantileCuts falls back to
// EvenCuts.
func QuantileCuts(ctx context.Context, req PlanRequest) (shard.Plan, error) {
	spec, k, axis := req.Spec, req.K, req.Axis
	if spec.Template.Dim() != 1 {
		return EvenCuts(ctx, req)
	}
	if k < 1 {
		return shard.Plan{}, fmt.Errorf("build: need at least one shard, got %d", k)
	}
	if k == 1 {
		return shard.NewPlanCuts(spec.Domain, axis, nil)
	}
	lo, hi := spec.Domain.Lo[0], spec.Domain.Hi[0]
	n := spec.Table.Len()
	exact := n*(n-1)/2 <= maxExactPairs
	var bps []float64
	if exact && req.Inters != nil {
		bps = make([]float64, 0, len(req.Inters))
		for _, in := range req.Inters {
			// The hyperplane is dc·x + b; its root is the breakpoint. The
			// enumeration's widened margin admits slightly out-of-domain
			// pairs — drop them, quantiles want in-domain mass only.
			if t := -in.H.B / in.H.C[0]; t > lo && t < hi {
				bps = append(bps, t)
			}
		}
	} else {
		var err error
		if bps, err = standaloneBreakpoints(ctx, req); err != nil {
			return shard.Plan{}, err
		}
	}
	if len(bps) < k {
		return EvenCuts(ctx, req)
	}
	sort.Float64s(bps)
	cuts := make([]float64, 0, k-1)
	prev := lo
	for i := 1; i < k; i++ {
		idx := i * len(bps) / k
		// A mass of identical breakpoints can swallow a quantile; advance
		// to the next strictly larger value so the cut list stays strictly
		// ascending and interior.
		for idx < len(bps) && bps[idx] <= prev {
			idx++
		}
		if idx >= len(bps) || bps[idx] >= hi {
			return shard.Plan{}, fmt.Errorf("build: breakpoint distribution too concentrated for %d quantile shards", k)
		}
		cuts = append(cuts, bps[idx])
		prev = bps[idx]
	}
	return shard.NewPlanCuts(spec.Domain, axis, cuts)
}

// standaloneBreakpoints derives the in-domain breakpoint list for a
// QuantileCuts call that arrived without a precomputed enumeration:
// exact (worker-sharded) for small tables, sampled for large ones.
func standaloneBreakpoints(ctx context.Context, req PlanRequest) ([]float64, error) {
	fs, err := req.Spec.Template.InterpretTable(req.Spec.Table)
	if err != nil {
		return nil, err
	}
	lo, hi := req.Spec.Domain.Lo[0], req.Spec.Domain.Hi[0]
	n := len(fs)
	if n < 2 {
		return nil, nil // no pairs, no density: caller falls back to even cuts
	}
	if pairs := n * (n - 1) / 2; pairs <= maxExactPairs {
		inters, err := itree.Pairs1DCtx(ctx, fs, req.Spec.Domain, req.Workers)
		if err != nil {
			return nil, err
		}
		bps := make([]float64, 0, len(inters))
		for _, in := range inters {
			if t := -in.H.B / in.H.C[0]; t > lo && t < hi {
				bps = append(bps, t)
			}
		}
		return bps, nil
	}
	// The sample seed is fixed so every owner process derives the same
	// plan from the same table (see Planner's contract).
	rng := rand.New(rand.NewSource(1))
	bps := make([]float64, 0, quantileSample)
	for tries := 0; len(bps) < quantileSample && tries < 16*quantileSample; tries++ {
		if tries%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		dc := fs[i].Coef[0] - fs[j].Coef[0]
		if dc == 0 {
			continue
		}
		if t := (fs[j].Bias - fs[i].Bias) / dc; t > lo && t < hi {
			bps = append(bps, t)
		}
	}
	return bps, nil
}

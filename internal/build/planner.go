package build

import (
	"context"
	"fmt"
	"sort"

	"aqverify/internal/itree"
	"aqverify/internal/shard"
)

// PlanRequest carries a planner's inputs: the spec and the requested
// shard count and axis. A planner that needs the breakpoint distribution
// derives it from the spec itself.
type PlanRequest struct {
	Spec    Spec
	K, Axis int
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
// and the Outsource that follows it must derive the same plan — and are
// placed on the thresholds of one itree.Pairs1DCtx call over the whole
// domain, so the crossing rule and hyperplane convention stay in one
// place.
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
	fs, err := spec.Template.InterpretTable(spec.Table)
	if err != nil {
		return shard.Plan{}, err
	}
	inters, err := itree.Pairs1DCtx(ctx, fs, spec.Domain)
	if err != nil {
		return shard.Plan{}, err
	}
	lo, hi := spec.Domain.Lo[0], spec.Domain.Hi[0]
	bps := make([]float64, 0, len(inters))
	for _, in := range inters {
		// The hyperplane is x − τ: its root is the threshold τ exactly,
		// in (lo, hi]. A cut must stay strictly interior.
		if t := -in.H.B; t < hi {
			bps = append(bps, t)
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

package bench

import (
	"context"
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/shard"
)

// shardSet is the fixture both sharding figures build: a
// K-shard multi-signature set over the configured workload.
func shardSet(n, k int) fixture {
	return fixture{n: n, mode: core.MultiSignature, shards: k}
}

// subdomainSpread returns the total, smallest and largest per-shard
// subdomain counts of a set.
func subdomainSpread(set *shard.Set) (total, lo, hi int) {
	lo = set.Trees[0].NumSubdomains() // a set has at least one shard
	for _, t := range set.Trees {
		n := t.NumSubdomains()
		total += n
		lo, hi = min(lo, n), max(hi, n)
	}
	return total, lo, hi
}

// shardRow measures the domain-sharded builder against the single tree:
// the K-shard set's per-shard and total subdomain counts and its
// signature count, then a sample of routed queries cross-checked
// against the K=1 answers — every verdict and every result window must
// be identical, the identity the shard subsystem promises. The sharded
// build's clock is BenchmarkShardedBuild (see EXPERIMENTS.md).
func shardRow(ctx context.Context, h *Harness, p point, b []*built) ([]string, error) {
	base, set := b[0], b[1]
	total, _, hi := subdomainSpread(set.Set)
	verdict, err := h.identity(ctx, base.Result, set.Result)
	if err != nil {
		return nil, err
	}
	return []string{fmtInt(p.n), fmtInt(p.k),
		fmtInt(total), fmtInt(hi), fmtInt(set.Set.SignatureCount()), verdict}, nil
}

// planRow compares the build plane's two shard planners on a skewed
// workload: clustered attributes concentrate the pairwise breakpoints,
// so even cuts leave one shard owning most subdomains while quantile
// cuts split the breakpoint mass evenly. It reports the planner's
// per-shard subdomain spread (max/min over the K shards) and
// cross-checks routed answers against the K=1 build — rebalancing must
// never change a verdict or a result window.
func planRow(ctx context.Context, h *Harness, p point, b []*built) ([]string, error) {
	base, set := b[0], b[1]
	_, lo, hi := subdomainSpread(set.Set)
	verdict, err := h.identity(ctx, base.Result, set.Result)
	if err != nil {
		return nil, err
	}
	ratio := "inf"
	if lo > 0 {
		ratio = fmt.Sprintf("%.2f", float64(hi)/float64(lo))
	}
	return []string{fmtInt(p.n), fmtInt(p.k), p.arm, fmtInt(lo), fmtInt(hi), ratio, verdict}, nil
}

package shard

import (
	"context"
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/itree"
	"aqverify/internal/pool"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// Set is a domain-sharded deployment: one built IFMH-tree per sub-box of
// the plan, all signed by the same owner key over the same record table.
type Set struct {
	Plan  Plan
	Trees []*core.Tree
}

// Build constructs the K shard trees concurrently. p is the single-tree
// build configuration; p.Domain must equal plan.Domain, and each shard's
// tree is built with its sub-box substituted for it. Every shard reuses
// p.Workers for its own internal worker pool, so on a large machine the
// effective parallelism is K × Workers; shard builds are independent and
// could equally run on K different machines.
//
// For univariate templates the O(n²) pairwise-intersection enumeration
// runs once and is partitioned across shards by the half-open ownership
// rule of itree.PairsPartition1D, instead of once per shard.
// Each shard's IMH shape is seeded with p.Seed plus the shard index,
// keeping builds reproducible.
func Build(tbl record.Table, p core.Params, plan Plan) (*Set, error) {
	return BuildCtx(context.Background(), tbl, p, plan, nil)
}

// PerShardProgress derives shard i's stage callback (core.Params.Progress)
// for a set build; it may return nil to leave a shard unobserved. The
// returned callbacks run on the K concurrent shard-build goroutines.
type PerShardProgress func(shard int) func(core.Stage, int)

// BuildCtx is Build with cooperative cancellation and optional per-shard
// progress attribution. A done ctx stops unstarted shard builds from
// launching and cancels the in-flight ones (each core.BuildCtx aborts
// between chunks), returning ctx.Err().
func BuildCtx(ctx context.Context, tbl record.Table, p core.Params, plan Plan, progress PerShardProgress) (*Set, error) {
	buckets, err := shardBuckets(ctx, tbl, p, plan)
	if err != nil {
		return nil, err
	}

	s := &Set{Plan: plan, Trees: make([]*core.Tree, plan.K())}
	errs := make([]error, plan.K())
	runErr := pool.RunCtx(ctx, plan.K(), plan.K(), func(_, i int) {
		sp := shardParams(p, plan, buckets, i)
		if progress != nil {
			sp.Progress = progress(i)
		}
		tree, err := core.BuildCtx(ctx, tbl, sp)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		s.Trees[i] = tree
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return s, nil
}

// shardBuckets validates the build inputs and partitions the global
// intersection enumeration across the plan's sub-boxes (1-D templates
// only; multivariate shards enumerate per sub-box inside core.Build).
// A caller that already holds the whole-domain enumeration — the build
// plane shares one with its cut planner — passes it through p.Inters1D
// and only pays a linear re-bucketing pass; otherwise the O(n²) scan
// runs here, sharded across p.Workers goroutines.
func shardBuckets(ctx context.Context, tbl record.Table, p core.Params, plan Plan) ([][]itree.Intersection, error) {
	if plan.K() == 0 {
		return nil, fmt.Errorf("shard: empty plan; use NewPlan")
	}
	if !p.Domain.Equal(plan.Domain) {
		return nil, fmt.Errorf("shard: plan covers %v-%v but Params.Domain is %v-%v",
			plan.Domain.Lo, plan.Domain.Hi, p.Domain.Lo, p.Domain.Hi)
	}
	if p.Template.Dim() != 1 {
		if p.Inters1D != nil {
			return nil, fmt.Errorf("shard: Params.Inters1D applies to univariate templates only")
		}
		return make([][]itree.Intersection, plan.K()), nil
	}
	if p.Inters1D != nil {
		return itree.PartitionInters1D(p.Inters1D, plan.Domain, plan.Cuts)
	}
	if err := p.Template.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	fs, err := p.Template.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	return itree.PairsPartition1DCtx(ctx, fs, plan.Domain, plan.Cuts, p.Workers)
}

// shardParams derives shard i's build configuration from the set-wide
// one: the sub-box domain, a seed derived from the shard index, and the
// shard's intersection bucket.
func shardParams(p core.Params, plan Plan, buckets [][]itree.Intersection, i int) core.Params {
	sp := p
	sp.Domain = plan.Boxes[i]
	sp.Seed = p.Seed + int64(i)
	sp.Inters1D = buckets[i]
	if sp.Inters1D == nil && p.Template.Dim() == 1 {
		// An interior shard may legitimately own zero
		// intersections; distinguish that from "enumerate for me".
		sp.Inters1D = []itree.Intersection{}
	}
	return sp
}

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.Trees) }

// NumRecords returns the database size (every shard holds the full
// table; the split is over the domain, not the rows).
func (s *Set) NumRecords() int { return s.Trees[0].NumRecords() }

// Mode returns the signing scheme shared by every shard.
func (s *Set) Mode() verify.Mode { return s.Trees[0].Mode() }

// Public returns the parameters the owner publishes for clients — the
// same bundle for every shard, which is what makes sharding transparent
// to verifying clients.
func (s *Set) Public() verify.PublicParams { return s.Trees[0].Public() }

// Stats returns each shard's structure footprint, index-aligned with
// Plan.Boxes.
func (s *Set) Stats() []core.Stats {
	out := make([]core.Stats, len(s.Trees))
	for i, t := range s.Trees {
		out[i] = t.Stats()
	}
	return out
}

// SignatureCount sums the owner signatures across shards (K for
// one-signature mode, the total subdomain count for multi-signature).
func (s *Set) SignatureCount() int {
	n := 0
	for _, t := range s.Trees {
		n += t.SignatureCount()
	}
	return n
}

// NumSubdomains sums the subdomain (FMH-tree) count across shards.
func (s *Set) NumSubdomains() int {
	n := 0
	for _, t := range s.Trees {
		n += t.NumSubdomains()
	}
	return n
}

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

// PerShardProgress derives shard i's stage callback (core.Params.Progress)
// for a set build; it may return nil to leave a shard unobserved. The
// returned callbacks run on the K concurrent shard-build goroutines.
type PerShardProgress func(shard int) func(core.Stage, int)

// BuildCtx constructs the K shard trees concurrently and returns the set
// with the K owners that built it, index-aligned with Plan.Boxes (the
// set's trees are the owners' serving trees). p is the single-tree
// build configuration; p.Domain must equal plan.Domain, and each shard's
// tree is built with its sub-box substituted for it. Every shard reuses
// p.Workers for its own internal worker pool, so on a large machine the
// effective parallelism is K × Workers; shard builds are independent and
// could equally run on K different machines.
//
// For univariate templates the pairwise-intersection enumeration
// runs once and is split across shards by itree.PartitionInters1D's
// half-open ownership rule, instead of once per shard.
// Each shard's IMH shape is seeded with p.Seed plus the shard index,
// keeping builds reproducible. progress, when non-nil, attributes stage
// events per shard. A done ctx stops unstarted shard builds from
// launching and cancels the in-flight ones (each core.BuildCtx aborts
// between chunks), returning ctx.Err().
func BuildCtx(ctx context.Context, tbl record.Table, p core.Params, plan Plan, progress PerShardProgress) (*Set, []*core.Owner, error) {
	buckets, err := shardBuckets(ctx, tbl, p, plan)
	if err != nil {
		return nil, nil, err
	}

	s := &Set{Plan: plan, Trees: make([]*core.Tree, plan.K())}
	owners := make([]*core.Owner, plan.K())
	errs := make([]error, plan.K())
	runErr := pool.RunCtx(ctx, plan.K(), plan.K(), func(_, i int) {
		sp := shardParams(p, plan, buckets, i)
		if progress != nil {
			sp.Progress = progress(i)
		}
		o, err := core.BuildCtx(ctx, tbl, sp)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		owners[i], s.Trees[i] = o, o.Tree
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	return s, owners, nil
}

// shardBuckets validates the build inputs and splits the whole-domain
// intersection list across the plan's sub-boxes with
// itree.PartitionInters1D (1-D templates only; multivariate shards
// enumerate per sub-box inside core.BuildCtx). The list is p.Inters1D —
// the build plane shares its one enumeration with the cut planner that
// way — or, when that is nil, one itree.Pairs1DCtx call here.
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
	inters := p.Inters1D
	if inters == nil {
		fs, err := p.Template.InterpretTable(tbl)
		if err != nil {
			return nil, err
		}
		if inters, err = itree.Pairs1DCtx(ctx, fs, plan.Domain); err != nil {
			return nil, err
		}
	}
	return itree.PartitionInters1D(inters, plan.Domain, plan.Cuts)
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

package shard

import (
	"context"
	"fmt"

	"aqverify/internal/core"
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
// Each shard enumerates the intersections inside its own sub-box
// (core.BuildCtx does, as for an unsharded build over the whole domain),
// so a crossing exactly on a cut splits neither neighbour.
// Each shard's IMH shape is seeded with p.Seed plus the shard index,
// keeping builds reproducible. progress, when non-nil, attributes stage
// events per shard. A done ctx stops unstarted shard builds from
// launching and cancels the in-flight ones (each core.BuildCtx aborts
// between chunks), returning ctx.Err().
func BuildCtx(ctx context.Context, tbl record.Table, p core.Params, plan Plan, progress PerShardProgress) (*Set, []*core.Owner, error) {
	if err := validate(p, plan); err != nil {
		return nil, nil, err
	}

	s := &Set{Plan: plan, Trees: make([]*core.Tree, plan.K())}
	owners := make([]*core.Owner, plan.K())
	errs := make([]error, plan.K())
	runErr := pool.RunCtx(ctx, plan.K(), plan.K(), func(_, i int) {
		sp := shardParams(p, plan, i)
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

// validate checks that the plan is usable and covers the build's domain.
func validate(p core.Params, plan Plan) error {
	if plan.K() == 0 {
		return fmt.Errorf("shard: empty plan; use NewPlan")
	}
	if !p.Domain.Equal(plan.Domain) {
		return fmt.Errorf("shard: plan covers %v-%v but Params.Domain is %v-%v",
			plan.Domain.Lo, plan.Domain.Hi, p.Domain.Lo, p.Domain.Hi)
	}
	return nil
}

// shardParams derives shard i's build configuration from the set-wide
// one: the sub-box domain and a seed derived from the shard index.
func shardParams(p core.Params, plan Plan, i int) core.Params {
	sp := p
	sp.Domain = plan.Boxes[i]
	sp.Seed = p.Seed + int64(i)
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

package core

import (
	"context"
	"fmt"

	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/record"
	"aqverify/internal/sweep"
	"aqverify/internal/verify"
)

// BuildCtx constructs the IFMH-tree for a table under the given
// parameters, following the paper's four steps: build the I-tree over
// all pairwise intersections, build an FMH-tree per sorted function
// list, propagate Merkle hashes up the IMH-tree, and sign (the root, or
// every subdomain). It returns the owner's side of the publication; the
// server is handed the embedded Tree.
//
// Every stage with independent units is sharded across Params.Workers
// goroutines: record digesting, the subdomain sweep plan,
// per-subdomain FMH-list construction (multivariate templates),
// level-order IMH hash propagation, and multi-signature signing. The output is byte-identical for every worker
// count: every digest, swap list and signature input depends only on its
// own index, and per-worker hash counters are merged after each join.
//
// Cancellation is cooperative: a done ctx stops each stage's worker pool
// from claiming new chunks, the serial stages check between units, and
// BuildCtx returns ctx.Err(). Params.Progress, when set, observes every
// stage as it starts.
func BuildCtx(ctx context.Context, tbl record.Table, p Params) (*Owner, error) {
	if p.Signer == nil {
		return nil, fmt.Errorf("core: Params.Signer is required")
	}
	if tbl.Len() == 0 {
		return nil, fmt.Errorf("core: cannot outsource an empty table")
	}
	if err := p.Template.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	if p.Domain.Dim() != p.Template.Dim() {
		return nil, fmt.Errorf("core: domain is %d-D but template has %d variables",
			p.Domain.Dim(), p.Template.Dim())
	}
	h := p.Hasher
	if h == nil {
		h = hashing.New(nil)
	}

	fs, err := p.Template.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	o := &Owner{
		Tree: &Tree{
			mode:     p.Mode,
			epoch:    p.Epoch,
			domain:   p.Domain,
			template: p.Template,
			table:    tbl,
			fs:       fs,
			verifier: p.Signer.Verifier(),
		},
		p:      p,
		hasher: h,
	}
	if o.epoch == 0 {
		o.epoch = 1
	}
	workers := p.workers()
	p.progress(StageDigest, tbl.Len())
	o.recDigests = make([]hashing.Digest, tbl.Len())
	err = o.parallelChunks(ctx, workers, tbl.Len(), func(h *hashing.Hasher, lo, hi int) error {
		for i := lo; i < hi; i++ {
			o.recDigests[i] = h.Record(tbl.Records[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if p.Template.Dim() == 1 {
		if err := o.build1D(ctx); err != nil {
			return nil, err
		}
		return o, nil
	}

	space, err := itree.NewSpaceND(p.Domain)
	if err != nil {
		return nil, err
	}
	p.progress(StageITree, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.itree = itree.Build(space, itree.PairsND(fs), p.Seed)
	p.progress(StageLists, len(o.itree.Subs))
	if err := o.buildListsND(ctx, workers); err != nil {
		return nil, err
	}
	if err := o.seal(ctx); err != nil {
		return nil, err
	}
	return o, nil
}

// ApplyCtx re-outsources the owner's table after a mutation: it is
// BuildCtx of tbl, the mutated table, under the retained parameters,
// hasher and progress callback at the next epoch. The receiver is left
// untouched, so a server can keep answering from its snapshot while the
// next epoch builds. The paper has no update algorithm — its
// construction is the four from-scratch steps of §3.1 — and every
// subdomain's list holds every record, so any real mutation changes
// every list and every signature.
func (o *Owner) ApplyCtx(ctx context.Context, tbl record.Table) (*Owner, error) {
	p := o.p
	p.Epoch = o.epoch + 1
	p.Hasher = o.hasher
	return BuildCtx(ctx, tbl, p)
}

// progress reports one stage start to the configured callback, if any.
func (p Params) progress(stage Stage, units int) {
	if p.Progress != nil {
		p.Progress(stage, units)
	}
}

// fmhFromPerm builds a fresh FMH-tree for a permutation with the given
// hasher (a worker-local one inside parallel sections).
func (o *Owner) fmhFromPerm(h *hashing.Hasher, perm []int) (*fmh.List, error) {
	return fmh.Build(h, perm, func(rec int) hashing.Digest {
		return h.Leaf(o.recDigests[rec])
	})
}

// CrossingPairs lists, per boundary of a univariate arrangement, the
// function pairs crossing there — the boundary groups of
// sweep.ComputeCtx. The signature-mesh baseline sweeps the same
// arrangement without the tree and reads its groups here too.
func CrossingPairs(arr *itree.Arrangement1D) [][]sweep.Pair {
	out := make([][]sweep.Pair, len(arr.Groups))
	for k, g := range arr.Groups {
		out[k] = make([]sweep.Pair, len(g.Members))
		for m, in := range g.Members {
			out[k][m] = sweep.Pair{I: in.I, J: in.J}
		}
	}
	return out
}

// build1D is the univariate pipeline: enumerate the pairs crossing
// inside the domain, sort them into the arrangement, read the canonical
// I-tree directly off it, read the sweep inputs off both (crossing
// pairs from each group's members, witnesses from the built
// subdomains), compute the sweep plan — seed the sorted order exactly
// (see sweep.ComputeCtx for how the seeding shards across workers), then
// cross each boundary by the adjacent transpositions of the pairs
// intersecting there — build the FMH lists, propagate and sign.
func (o *Owner) build1D(ctx context.Context) error {
	p := o.p
	space, err := itree.NewSpace1D(p.Domain)
	if err != nil {
		return err
	}
	p.progress(StagePairs, o.table.Len())
	inters, err := itree.Pairs1DCtx(ctx, o.fs, p.Domain)
	if err != nil {
		return err
	}
	arr := itree.NewArrangement1D(space, inters, p.Seed)
	p.progress(StageITree, arr.NumBreakpoints())
	if err := ctx.Err(); err != nil {
		return err
	}
	o.itree = itree.BuildCanonical1D(space, arr)

	p.progress(StageSweep, arr.NumBreakpoints())
	witnesses := make([]funcs.At, len(o.itree.Subs))
	for k, sub := range o.itree.Subs {
		witnesses[k] = space.WitnessAt(sub.Region)
	}
	plan, err := sweep.ComputeCtx(ctx, o.fs, witnesses, CrossingPairs(arr), p.workers())
	if err != nil {
		return err
	}
	o.swaps = plan.TotalSwaps()
	if err := o.listsFromPlan(ctx, plan); err != nil {
		return err
	}
	return o.seal(ctx)
}

// seal runs the two closing stages every tree shares: IMH hash
// propagation and signing.
func (o *Owner) seal(ctx context.Context) error {
	o.p.progress(StagePropagate, o.itree.NodeCount)
	if err := o.propagateHashes(ctx, o.p.workers()); err != nil {
		return err
	}
	return o.sign(ctx)
}

// listsFromPlan builds every subdomain's FMH list from a computed sweep
// plan: the base list from plan.BasePerm, every other list derived
// persistently from its left neighbor by the boundary's swaps. The chain
// is inherently sequential and O(n + S log n) in total, against the
// S·(2(n+2)−1) nodes of one from-scratch tree per subdomain. It is the
// only univariate construction.
func (o *Owner) listsFromPlan(ctx context.Context, plan sweep.Plan) error {
	subs := o.itree.Subs
	o.subs = make([]*SubInfo, len(subs))
	o.p.progress(StageLists, len(subs))

	list, err := o.fmhFromPerm(o.hasher, plan.BasePerm)
	if err != nil {
		return err
	}
	o.subs[0] = &SubInfo{Sub: subs[0], List: list}
	for k := 0; k < len(subs)-1; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, pos := range plan.Swaps[k] {
			list, err = list.DeriveSwap(o.hasher, pos)
			if err != nil {
				return err
			}
		}
		o.subs[k+1] = &SubInfo{Sub: subs[k+1], List: list}
	}
	return nil
}

// buildListsND sorts each subdomain independently at an interior witness
// point and builds its list from scratch — there is no sweep order to
// exploit in d >= 2. The subdomains are independent, so the sort + FMH
// build shards across the worker pool.
func (o *Owner) buildListsND(ctx context.Context, workers int) error {
	subs := o.itree.Subs
	o.subs = make([]*SubInfo, len(subs))
	return o.parallelChunks(ctx, workers, len(subs), func(h *hashing.Hasher, lo, hi int) error {
		for i := lo; i < hi; i++ {
			sub := subs[i]
			w := o.itree.Space.Witness(sub.Region)
			list, err := o.fmhFromPerm(h, funcs.SortAt(o.fs, w))
			if err != nil {
				return err
			}
			o.subs[i] = &SubInfo{Sub: sub, List: list}
		}
		return nil
	})
}

// propagateHashes fills every IMH node's hash bottom-up (paper §3.1 step
// 3): subdomain leaves hash their FMH root; intersection nodes bind their
// hyperplane to their children's hashes. The walk is level-parallel:
// nodes are grouped by depth and each level is sharded across the worker
// pool, deepest first, so every node's children are hashed before the
// node itself — a node's hash depends only on its own children, which
// keeps the digest byte-identical for every worker count.
func (o *Owner) propagateHashes(ctx context.Context, workers int) error {
	var levels [][]*itree.Node
	var walk func(n *itree.Node, d int)
	walk = func(n *itree.Node, d int) {
		if d == len(levels) {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], n)
		if n.IsLeaf() {
			return
		}
		walk(n.Above, d+1)
		walk(n.Below, d+1)
	}
	walk(o.itree.Root, 0)
	for d := len(levels) - 1; d >= 0; d-- {
		level := levels[d]
		err := o.parallelChunks(ctx, workers, len(level), func(h *hashing.Hasher, lo, hi int) error {
			for _, n := range level[lo:hi] {
				if n.IsLeaf() {
					n.Hash = h.Subdomain(o.subs[n.Leaf.ID].List.Root())
				} else {
					n.Hash = h.Intersection(n.Int.H.Encode(nil), n.Above.Hash, n.Below.Hash)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	o.rootDigest = o.hasher.Root(o.itree.Root.Hash)
	return nil
}

// sign executes step 4 for the configured mode. Multi-signature mode
// shards the S independent subdomain signatures across the worker pool;
// each signed digest depends only on its own subdomain, so the signatures
// are independent of the worker count (schemes with per-signature
// randomness differ run to run regardless). Every sig.Signer is safe for
// concurrent use: the schemes are stateless apart from crypto/rand.
func (o *Owner) sign(ctx context.Context) error {
	p := o.p
	switch p.Mode {
	case verify.OneSignature:
		p.progress(StageSign, 1)
		if err := ctx.Err(); err != nil {
			return err
		}
		s, err := p.Signer.Sign(o.rootDigest[:])
		if err != nil {
			return fmt.Errorf("core: signing root: %w", err)
		}
		o.hasher.Counter().AddSign(1)
		o.rootSig = s
		o.sigCount = 1
	case verify.MultiSignature:
		p.progress(StageSign, len(o.subs))
		err := o.parallelChunks(ctx, p.workers(), len(o.subs), func(h *hashing.Hasher, lo, hi int) error {
			for _, si := range o.subs[lo:hi] {
				si.Ineqs = o.itree.Space.Halfspaces(si.Sub.Region)
				si.IneqEnc = geometry.EncodeHalfspaces(nil, si.Ineqs)
				d := h.MultiSig(h.Ineqs(si.IneqEnc), si.List.Root())
				s, err := p.Signer.Sign(d[:])
				if err != nil {
					return fmt.Errorf("core: signing subdomain %d: %w", si.Sub.ID, err)
				}
				h.Counter().AddSign(1)
				si.Sig = s
			}
			return nil
		})
		if err != nil {
			return err
		}
		o.sigCount = len(o.subs)
	default:
		return fmt.Errorf("core: unknown mode %v", p.Mode)
	}
	return nil
}

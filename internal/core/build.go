package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"aqverify/internal/fmh"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/mhtree"
	"aqverify/internal/record"
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
// goroutines: record digesting, per-subdomain FMH-list construction
// (multivariate templates), IMH hash propagation (one post-order pass,
// the subtrees below the root's first levels forked across the pool),
// and multi-signature signing. The univariate sweep is one serial walk
// that appends the FMH chain's structure; its internal rows are then
// hashed in one pass over contiguous row ranges
// (mhtree.Forest.HashCtx). The output is byte-identical for every
// worker count: every digest and signature input depends only on its
// own index, and per-goroutine hash counters are merged after each
// join.
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
	if tbl.Len() > math.MaxInt32-2 {
		return nil, fmt.Errorf("core: %d records overflow the 32-bit FMH leaf index", tbl.Len())
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
	leaves := make([]hashing.Digest, tbl.Len())
	err = o.parallelChunks(ctx, workers, tbl.Len(), func(h *hashing.Hasher, lo, hi int) error {
		for i := lo; i < hi; i++ {
			leaves[i] = h.Leaf(tbl.Records[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if p.Template.Dim() == 1 {
		if err := o.build1D(ctx, leaves); err != nil {
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
	if err := o.buildListsND(ctx, workers, leaves); err != nil {
		return nil, err
	}
	if err := o.seal(ctx); err != nil {
		return nil, err
	}
	return o, nil
}

// progress reports one stage start to the configured callback, if any.
func (p Params) progress(stage Stage, units int) {
	if p.Progress != nil {
		p.Progress(stage, units)
	}
}

// build1D is the univariate pipeline: enumerate the pairs crossing
// inside the domain, sort them into the arrangement, build the
// median-split I-tree over its thresholds, then walk its gaps (Arrangement1D.Sweep): gap
// 0's list is built from its sorted order and every other list is
// derived from its left neighbour in one path-copying pass over the
// positions the boundary's swaps touched. The chain is O(n + S log n)
// rows in one forest, against the S·(2(n+2)−1) of one from-scratch tree
// per subdomain. The serial walk appends only the derived rows'
// structure; one hash pass over Params.Workers goroutines fills their
// digests after it. Then propagate and sign. leaves[rec] is record rec's
// leaf digest.
func (o *Owner) build1D(ctx context.Context, leaves []hashing.Digest) error {
	p := o.p
	dom := p.Domain
	if p.OpenHi {
		// Only the floats below the upper edge: the last leaf is [τ, hi).
		dom = geometry.Box{Lo: dom.Lo, Hi: []float64{math.Nextafter(dom.Hi[0], math.Inf(-1))}}
	}
	space, err := itree.NewSpace1D(dom)
	if err != nil {
		return err
	}
	p.progress(StagePairs, o.table.Len())
	inters, err := itree.Pairs1DCtx(ctx, o.fs, dom)
	if err != nil {
		return err
	}
	arr := itree.NewArrangement1D(space, inters)
	p.progress(StageITree, arr.NumBreakpoints())
	if err := ctx.Err(); err != nil {
		return err
	}
	o.itree = itree.BuildCanonical1D(space, arr)

	subs := o.itree.Subs
	infos := make([]SubInfo, len(subs))
	o.subs = make([]*SubInfo, len(subs))
	// Gap 0's tree, then per swap its leaves and their root paths: under
	// depth + 4 rows on random lines (the table doubles past that).
	o.forest = new(mhtree.Forest)
	o.forest.Grow(2*(len(leaves)+2) - 1 + len(inters)*(bits.Len(uint(len(leaves)+2))+4))
	p.progress(StageLists, len(subs))
	var list fmh.List
	var at []int
	var derived uint32 // the first row of gap 1's list: HashCtx fills the rows from there
	err = arr.Sweep(ctx, o.fs, func(g int, perm, swaps []int) error {
		if g == 0 {
			list = fmh.Build(o.hasher, o.forest, perm, leaves)
			derived = uint32(o.forest.Len())
		} else {
			at = at[:0]
			for _, pos := range swaps {
				at = append(at, pos, pos+1)
			}
			slices.Sort(at)
			list = list.Derive(slices.Compact(at), perm, leaves)
		}
		o.swaps += len(swaps)
		infos[g] = SubInfo{Sub: subs[g], List: list}
		o.subs[g] = &infos[g]
		return nil
	})
	if err != nil {
		return err
	}
	if err := o.forest.HashCtx(ctx, o.hasher, derived, p.workers()); err != nil {
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

// buildListsND sorts each subdomain independently at an interior witness
// point and builds its list from scratch — there is no sweep order to
// exploit in d >= 2. The subdomains are independent, so the sort + FMH
// build shards across the worker pool: each chunk of subdomains builds
// and hashes its lists into a forest of its own (fmh.Build runs the
// forest's serial Hash pass on the chunk's goroutine), and the chunks'
// forests are then joined in subdomain order, so the rows are the same
// for every worker count.
func (o *Owner) buildListsND(ctx context.Context, workers int, leaves []hashing.Digest) error {
	subs := o.itree.Subs
	infos := make([]SubInfo, len(subs))
	o.subs = make([]*SubInfo, len(subs))
	chunks := make([]*mhtree.Forest, len(subs)) // by the chunk's first subdomain
	err := o.parallelChunks(ctx, workers, len(subs), func(h *hashing.Hasher, lo, hi int) error {
		f := new(mhtree.Forest)
		chunks[lo] = f
		for i := lo; i < hi; i++ {
			w := o.itree.Space.Witness(subs[i].Region)
			infos[i] = SubInfo{Sub: subs[i], List: fmh.Build(h, f, itree.SortAt(o.fs, w), leaves)}
			o.subs[i] = &infos[i]
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.forest = chunks[0]
	var shift uint32
	for i, f := range chunks {
		if f != nil && i > 0 {
			shift = o.forest.Append(f)
		}
		infos[i].List.Forest, infos[i].List.Row = o.forest, infos[i].List.Row+shift
	}
	return nil
}

// propagateHashes fills every IMH node's hash bottom-up (paper §3.1 step
// 3): subdomain leaves hash their FMH root; intersection nodes bind their
// hyperplane to their children's hashes. It is one post-order pass: the
// subtrees a few levels down are hashed across the worker pool, each on
// one goroutine, then the nodes above them. A node's hash depends only on
// its own children, so the digests are the same at every worker count.
func (o *Owner) propagateHashes(ctx context.Context, workers int) error {
	depth := bits.Len(uint(workers)) + 3 // about 16 subtrees per worker
	var forks []*itree.Node              // the subtrees depth levels down, and the leaves above them
	var split func(n *itree.Node, d int)
	split = func(n *itree.Node, d int) {
		if d == 0 || n.IsLeaf() {
			forks = append(forks, n)
		} else {
			split(n.Above, d-1)
			split(n.Below, d-1)
		}
	}
	split(o.itree.Root, depth)
	err := o.parallelChunks(ctx, workers, len(forks), func(h *hashing.Hasher, lo, hi int) error {
		for _, n := range forks[lo:hi] {
			o.hashIMH(h, n, -1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.hashIMH(o.hasher, o.itree.Root, depth)
	o.rootDigest = o.hasher.Root(o.itree.Root.Hash)
	return nil
}

// hashIMH fills the hashes of n's subtree in post-order — at d ≥ 0 all
// but those of the forks split found d levels down, hashed already.
func (o *Owner) hashIMH(h *hashing.Hasher, n *itree.Node, d int) {
	switch {
	case d == 0 || d > 0 && n.IsLeaf():
	case n.IsLeaf():
		n.Hash = h.Subdomain(o.subs[n.Leaf.ID].List.Root())
	default:
		o.hashIMH(h, n.Above, d-1)
		o.hashIMH(h, n.Below, d-1)
		var enc [64]byte // a hyperplane in up to 6 variables encodes on the stack
		n.Hash = h.Intersection(n.Int.H.Encode(enc[:0]), n.Above.Hash, n.Below.Hash)
	}
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

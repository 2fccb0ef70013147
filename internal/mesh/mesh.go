// Package mesh implements the signature-mesh baseline (Yang, Cai & Hu,
// "Authentication of function queries", ICDE'16 — the paper's §2.3.1 and
// the comparison target of its entire evaluation).
//
// The data owner partitions the 1-D query domain at every pairwise
// function intersection, sorts the functions per subdomain, brackets each
// sorted list with f_min/f_max tokens, and signs a digest for every pair
// of consecutive functions. Two functions that stay consecutive across a
// maximal run of adjacent subdomains share one signature for the whole
// run — the sharing that turns the chains into a mesh.
//
// Query processing performs a linear scan over the subdomains (the cost
// the IFMH-tree's logarithmic search eliminates), and a verification
// object carries one signature per consecutive result pair (|q|+1 of
// them, versus the IFMH-tree's single signature).
package mesh

import (
	"context"
	"fmt"
	"sort"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/metrics"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/sweep"
)

// Entry identifies one member of an adjacency pair: a function index, or
// one of the sentinel tokens.
const (
	// EntryMin is the f_min token.
	EntryMin = -1
	// EntryMax is the f_max token.
	EntryMax = -2
)

// Run is one signature's coverage: the adjacency (A,B) holds throughout
// subdomains [From,To], i.e. the domain interval [Lo,Hi].
type Run struct {
	A, B     int
	From, To int
	Lo, Hi   float64
	Sig      []byte
}

type pairKey struct{ a, b int }

// Mesh is the built signature mesh, playing the same server-side role as
// core.Tree.
type Mesh struct {
	table    record.Table
	template funcs.Template
	domain   geometry.Box
	fs       []funcs.Linear
	recDig   []hashing.Digest
	hasher   *hashing.Hasher
	verifier sig.Verifier

	// edges[k]..edges[k+1] is subdomain k's interval; len(edges) = S+1.
	edges  []float64
	plan   sweep.Plan
	cursor *sweep.Cursor

	runs     map[pairKey][]*Run
	sigCount int
}

// Params configures Build.
type Params struct {
	Signer   sig.Signer
	Domain   geometry.Box
	Template funcs.Template
	// Hasher may be nil for an uninstrumented hasher.
	Hasher *hashing.Hasher
	// Workers bounds the worker pool sharding the sweep-plan
	// computation; zero means one per CPU, one is serial. The built mesh
	// is identical either way.
	Workers int
}

// PublicParams is what the owner publishes for mesh clients.
type PublicParams struct {
	Verifier sig.Verifier
	Template funcs.Template
}

// Build constructs the signature mesh. Only univariate templates are
// supported — the baseline predates multi-dimensional treatment, and the
// paper's evaluation runs it on linear (1-D) ranking functions.
func Build(tbl record.Table, p Params) (*Mesh, error) {
	return BuildCtx(context.Background(), tbl, p)
}

// BuildCtx is Build with cooperative cancellation and the sweep stage
// sharded across p.Workers goroutines. The run-signing sweep itself
// stays serial — it is one left-to-right state machine over the
// adjacency slots — but checks ctx at every boundary.
func BuildCtx(ctx context.Context, tbl record.Table, p Params) (*Mesh, error) {
	if p.Signer == nil {
		return nil, fmt.Errorf("mesh: Params.Signer is required")
	}
	if tbl.Len() == 0 {
		return nil, fmt.Errorf("mesh: cannot outsource an empty table")
	}
	if err := p.Template.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	if p.Template.Dim() != 1 || p.Domain.Dim() != 1 {
		return nil, fmt.Errorf("mesh: the signature mesh baseline is univariate")
	}
	h := p.Hasher
	if h == nil {
		h = hashing.New(nil)
	}
	fs, err := p.Template.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		table:    tbl,
		template: p.Template,
		domain:   p.Domain,
		fs:       fs,
		hasher:   h,
		verifier: p.Signer.Verifier(),
		runs:     make(map[pairKey][]*Run),
	}
	m.recDig = make([]hashing.Digest, tbl.Len())
	for i, r := range tbl.Records {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		m.recDig[i] = h.Record(r)
	}

	// The arrangement is the IFMH-tree's own: the same enumeration, the
	// same exact in-domain filter and breakpoint grouping. Only the
	// breakpoints and their crossing pairs are read — never the
	// canonical order, so the seed is immaterial.
	inters, err := itree.Pairs1DCtx(ctx, fs, p.Domain)
	if err != nil {
		return nil, err
	}
	space, err := itree.NewSpace1D(p.Domain)
	if err != nil {
		return nil, err
	}
	arr := itree.NewArrangement1D(space, inters, 0)
	witnesses := make([]funcs.At, arr.NumBreakpoints()+1)
	m.edges = make([]float64, 0, len(witnesses)+1)
	m.edges = append(m.edges, p.Domain.Lo[0])
	for k := range witnesses {
		gap := arr.Gap(k)
		witnesses[k] = space.WitnessAt(gap)
		m.edges = append(m.edges, gap.Hi)
	}

	m.plan, err = sweep.ComputeCtx(ctx, fs, witnesses, core.CrossingPairs(arr), p.Workers)
	if err != nil {
		return nil, err
	}
	m.cursor = sweep.NewCursor(m.plan)

	if err := m.buildRuns(ctx, p.Signer); err != nil {
		return nil, err
	}
	return m, nil
}

// NumSubdomains returns the mesh's cell count.
func (m *Mesh) NumSubdomains() int { return len(m.edges) - 1 }

// NumRecords returns the database size.
func (m *Mesh) NumRecords() int { return m.table.Len() }

// Domain returns the owner-specified bounded query domain.
func (m *Mesh) Domain() geometry.Box { return m.domain }

// SignatureCount returns the total signatures created at build time — the
// paper's Fig 5a metric for the mesh.
func (m *Mesh) SignatureCount() int { return m.sigCount }

// Public returns the parameters the owner publishes for clients.
func (m *Mesh) Public() PublicParams {
	return PublicParams{Verifier: m.verifier, Template: m.template}
}

// entryDigest maps an entry to its digest: record digests for functions,
// sentinel digests (binding the list length) for the tokens.
func (m *Mesh) entryDigest(e int) hashing.Digest {
	switch e {
	case EntryMin:
		return m.hasher.SentinelMin(m.table.Len())
	case EntryMax:
		return m.hasher.SentinelMax(m.table.Len())
	default:
		return m.recDig[e]
	}
}

// runEnc canonically encodes a run's domain interval for its digest.
func runEnc(lo, hi float64) []byte {
	h := geometry.Hyperplane{C: []float64{lo}, B: hi}
	return h.Encode(nil)
}

// buildRuns sweeps the subdomains left to right, tracking for every
// adjacency slot the run it began at, closing and signing runs whenever a
// crossing disturbs the slot.
func (m *Mesh) buildRuns(ctx context.Context, signer sig.Signer) error {
	n := m.table.Len()
	s := m.NumSubdomains()
	perm := append([]int(nil), m.plan.BasePerm...)

	type open struct {
		a, b int
		from int
	}
	// Slot i covers the pair (entry(i-1), entry(i)) for i in [0, n].
	entry := func(pos int) int {
		switch {
		case pos < 0:
			return EntryMin
		case pos >= n:
			return EntryMax
		default:
			return perm[pos]
		}
	}
	slots := make([]open, n+1)
	for i := 0; i <= n; i++ {
		slots[i] = open{a: entry(i - 1), b: entry(i), from: 0}
	}

	sign := func(o open, to int) error {
		if o.from > to {
			// Opened and disturbed within the same crossing; it never
			// covered a whole subdomain.
			return nil
		}
		lo, hi := m.edges[o.from], m.edges[to+1]
		d := m.hasher.MeshPair(m.entryDigest(o.a), m.entryDigest(o.b), runEnc(lo, hi))
		sg, err := signer.Sign(d[:])
		if err != nil {
			return fmt.Errorf("mesh: signing run (%d,%d): %w", o.a, o.b, err)
		}
		m.hasher.Counter().AddSign(1)
		m.sigCount++
		k := pairKey{o.a, o.b}
		m.runs[k] = append(m.runs[k], &Run{A: o.a, B: o.b, From: o.from, To: to, Lo: lo, Hi: hi, Sig: sg})
		return nil
	}

	for k := 0; k < s-1; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, pos := range m.plan.Swaps[k] {
			// A swap at pos disturbs slots pos, pos+1, pos+2.
			for _, sl := range []int{pos, pos + 1, pos + 2} {
				if err := sign(slots[sl], k); err != nil {
					return err
				}
			}
			perm[pos], perm[pos+1] = perm[pos+1], perm[pos]
			for _, sl := range []int{pos, pos + 1, pos + 2} {
				slots[sl] = open{a: entry(sl - 1), b: entry(sl), from: k + 1}
			}
		}
	}
	for i := 0; i <= n; i++ {
		if err := sign(slots[i], s-1); err != nil {
			return err
		}
	}
	return nil
}

// findRun locates the signed run covering subdomain sub for the adjacency
// (a,b), if one exists. Every binary-search probe examines one run cell
// and is counted — the per-pair lookup cost of assembling a mesh VO.
func (m *Mesh) findRun(a, b, sub int, ctr *metrics.Counter) (*Run, bool) {
	rs := m.runs[pairKey{a, b}]
	i := sort.Search(len(rs), func(i int) bool {
		ctr.AddCells(1)
		return rs[i].To >= sub
	})
	if i < len(rs) && rs[i].From <= sub {
		return rs[i], true
	}
	return nil, false
}

// Package bench regenerates every table of the paper's evaluation (§4.3)
// and of this implementation's own planes: data-owner overheads (Fig
// 5a-c), server overheads (Fig 6a-d), user verification overheads (Fig
// 7a-d), communication overheads (Fig 8a-b); three ablations over design
// choices the paper leaves open (A1, A3, A4); and one figure per plane
// built on top of the IFMH-tree — sharding and its planners (shardS1,
// planQ1).
//
// The figures are counts — hashes, signature checks, nodes, bytes and
// subdomains — so every table but Fig 5b is a deterministic function
// of the Config and its seed. Fig 5b reads the
// package's one stopwatch (the build timer in Harness.build); Figs
// 7b-7d multiply counts by the harness's price list (PerHashSeconds,
// PerVerifySeconds). Every other clock lives in benchmark/.
//
// A figure is a row of data, not a runner: Figures lists 18 Figure
// values — id, titles, columns, notes, a sweep, the fixtures a sweep
// point needs, a function measuring the point on them, and the column
// (if any) holding an identity verdict — and Figure.Run is the one
// engine that turns a row into a Table: header, scheme note, sweep
// loop, fixture builds, error labelling, and failing the figure when a
// verdict is not "ok". Everything the rows measure on comes from one
// place, the Harness: fixtures by key (build) and the identity verdict
// (identical).
package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"aqverify/internal/core"
	"aqverify/internal/query"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// Figure is one regenerable evaluation artifact.
type Figure struct {
	ID string
	// Title is the catalogue title; the rendered table is headed by
	// heading when the figure sets one.
	Title   string
	heading func(c *Config) string
	columns []string
	// notes follow the scheme note; they may calibrate (Figs 7b-7d).
	notes func(h *Harness) ([]string, error)
	// identity names the column whose cells are verdicts: any cell other
	// than "ok" fails the figure.
	identity string
	sweep    func(c *Config) []point
	// fixtures names the structures one sweep point is measured on; the
	// engine builds (or recalls) them and hands them to row in order.
	fixtures func(p point) []fixture
	// row measures one sweep point and returns its cells, one per column.
	row func(ctx context.Context, h *Harness, p point, b []*built) ([]string, error)
}

// point is one position of a figure's sweep. n is the database size; k
// is the sweep's second coordinate when it has one — shard count K,
// result size |q| or dimension d — and arm its third, a
// planner or distribution name.
type point struct {
	n, k int
	arm  string
}

func (p point) String() string {
	return strings.TrimSpace(fmt.Sprintf("n=%d k=%d %s", p.n, p.k, p.arm))
}

// Run regenerates the figure on the harness. It is the one engine every
// figure goes through; an identity verdict other than "ok" is an error,
// so a broken identity fails vqbench and the tests instead of shipping
// as a table cell nobody parses.
func (f Figure) Run(ctx context.Context, h *Harness) (*Table, error) {
	t := &Table{ID: f.ID, Title: f.Title, Columns: f.columns, Notes: []string{h.schemeNote()}}
	if f.heading != nil {
		t.Title = f.heading(&h.Cfg)
	}
	if f.notes != nil {
		notes, err := f.notes(h)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f.ID, err)
		}
		t.Notes = append(t.Notes, notes...)
	}
	verdict := slices.Index(f.columns, f.identity)
	for _, p := range f.sweep(&h.Cfg) {
		var bs []*built
		for _, fx := range f.fixtures(p) {
			b, err := h.build(ctx, fx)
			if err != nil {
				return nil, fmt.Errorf("bench: %s %v: %w", f.ID, p, err)
			}
			bs = append(bs, b)
		}
		cells, err := f.row(ctx, h, p, bs)
		if err != nil {
			return nil, fmt.Errorf("bench: %s %v: %w", f.ID, p, err)
		}
		if verdict >= 0 && cells[verdict] != "ok" {
			return nil, fmt.Errorf("bench: %s %v: %s column reads %q, want \"ok\" (row %v)",
				f.ID, p, f.identity, cells[verdict], cells)
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// grid is the cross product sweeps are made of; an empty ks or arms
// leaves that coordinate unset.
func grid(ns, ks []int, arms ...string) []point {
	if len(ks) == 0 {
		ks = []int{0}
	}
	if len(arms) == 0 {
		arms = []string{""}
	}
	var out []point
	for _, n := range ns {
		for _, k := range ks {
			for _, arm := range arms {
				out = append(out, point{n, k, arm})
			}
		}
	}
	return out
}

// The shared sweeps. A |q| sweep runs at the largest database size; the
// paper figures clamp |q| to it when they measure (paperFig.row).
func overSizes(c *Config) []point      { return grid(c.Sizes, nil) }
func overQuerySizes(c *Config) []point { return grid([]int{c.maxSize()}, c.QuerySizes) }
func overAblation(c *Config) []point   { return grid(c.AblationSizes, nil) }
func overShards(c *Config) []point     { return grid(c.AblationSizes, c.ShardCounts) }

// fixed is a heading or a note list that does not depend on the run.
func fixed(s string) func(*Config) string { return func(*Config) string { return s } }
func static(notes ...string) func(*Harness) ([]string, error) {
	return func(*Harness) ([]string, error) { return notes, nil }
}

// Figures lists every figure — the paper's thirteen in paper order, the
// three ablations, then one per plane.
func Figures() []Figure {
	byArm := func(lead string) []string { return append([]string{lead}, approaches...) }
	atMaxSize := func(format string) func(*Config) string {
		return func(c *Config) string { return fmt.Sprintf(format, c.maxSize()) }
	}
	plain := func(p point) []fixture { return []fixture{{n: p.n}} }
	return []Figure{
		{ID: "fig5a", Title: "Data owner: signatures needed", heading: fixed("Signatures needed to create the structure"),
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms, row: paperFig{value: signatures, format: asInt}.row},
		{ID: "fig5b", Title: "Data owner: construction time", heading: fixed("Construction time (seconds)"),
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms, row: paperFig{value: buildSeconds, format: fmtF}.row},
		{ID: "fig5c", Title: "Data owner: structure size", heading: fixed("Structure size"),
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms, row: paperFig{value: structureBytes, format: asBytes}.row,
			notes: static("IFMH sizes use the delta representation (persistent FMH sharing); see ablation A1 for the paper-literal layout")},
		{ID: "fig6a", Title: "Server: traversal for top-3 queries", heading: fixed("Elements traversed constructing VO(q), top-3 query"),
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms,
			row: paperFig{kind: query.TopK, size: three, value: traversed, format: fmtF}.row},
		{ID: "fig6b", Title: "Server: traversal for 3NN queries", heading: fixed("Elements traversed constructing VO(q), 3NN query"),
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms,
			row: paperFig{kind: query.KNN, size: three, value: traversed, format: fmtF}.row},
		{ID: "fig6c", Title: "Server: traversal for range queries (3 results)", heading: fixed("Elements traversed constructing VO(q), range query with 3 results"),
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms,
			row: paperFig{kind: query.Range, size: three, value: traversed, format: fmtF}.row},
		{ID: "fig6d", Title: "Server: traversal by result length", heading: atMaxSize("Elements traversed by result length (n = %d)"),
			columns: byArm("|q|"), sweep: overQuerySizes, fixtures: threeArms,
			row: paperFig{kind: query.Range, size: swept, value: traversed, format: fmtF}.row},
		{ID: "fig7a", Title: "User: hashing operations", heading: fixed("Hashing operations per verification, by result length"),
			columns: byArm("|q|"), sweep: overQuerySizes, fixtures: threeArms,
			row: paperFig{kind: query.Range, size: swept, verify: true, value: verifyHashes, format: fmtF}.row},
		{ID: "fig7b", Title: "User: hashing time", heading: fixed("Hashing time per verification (ms), by result length"),
			columns: byArm("|q|"), sweep: overQuerySizes, fixtures: threeArms, notes: hashNote,
			row: paperFig{kind: query.Range, size: swept, verify: true, value: verifyHashes, scale: hashMS, format: fmtF}.row},
		{ID: "fig7c", Title: "User: signature decryption time (RSA vs DSA)", heading: fixed("Signature decryption time per verification (ms), RSA vs DSA"),
			columns: []string{"|q|", "mesh/RSA", "mesh/DSA", "one-sig/RSA", "one-sig/DSA", "multi-sig/RSA", "multi-sig/DSA"},
			sweep:   overQuerySizes, fixtures: threeArms, notes: decryptNote,
			row: paperFig{kind: query.Range, size: swept, verify: true, value: sigVerifies, scale: decryptMS, format: fmtF}.row},
		{ID: "fig7d", Title: "User: total verification time", heading: fixed("Total verification time (ms), by result length"),
			columns: byArm("|q|"), sweep: overQuerySizes, fixtures: threeArms, notes: totalNote, row: totalRow},
		{ID: "fig8a", Title: "Communication: VO size by result length", heading: atMaxSize("Verification object size by result length (n = %d)"),
			columns: byArm("|q|"), sweep: overQuerySizes, fixtures: threeArms,
			row: paperFig{kind: query.Range, size: swept, value: voBytes, format: asBytes}.row},
		{ID: "fig8b", Title: "Communication: VO size by database size",
			heading: func(c *Config) string {
				return fmt.Sprintf("Verification object size by database size (|q| = %d)", c.QFixed)
			},
			columns: byArm("n"), sweep: overSizes, fixtures: threeArms,
			row: paperFig{kind: query.Range, size: qFixed, value: voBytes, format: asBytes}.row},

		{ID: "ablationA1", Title: "Ablation: persistent vs paper-literal lists", heading: fixed("Persistent vs paper-literal subdomain lists (FMH nodes / size)"),
			columns: []string{"n", "subdomains", "fmh-nodes", "literal-fmh-nodes", "bytes", "literal-bytes"},
			notes: static(fmt.Sprintf("literal is the paper's one from-scratch FMH-tree per subdomain, in closed form: literal-fmh-nodes = S*(2(n+2)-1), "+
				"literal-bytes = bytes + %d per extra node (the per-subdomain permutation copies, S*n*8 bytes, that layout also kept are not counted)", core.BytesPerFMHNode)),
			sweep: overAblation, fixtures: plain, row: literalRow},
		{ID: "ablationA3", Title: "Ablation: attribute-distribution sensitivity", heading: fixed("Distribution sensitivity (fixed n, fixed target density)"),
			columns: []string{"distribution", "subdomains", "swaps", "search-nodes", "vo-bytes"},
			sweep:   overDistributions, row: distributionRow,
			fixtures: func(p point) []fixture {
				return []fixture{{n: p.n, dist: workload.Distribution(p.arm), mode: verify.MultiSignature}}
			}},
		{ID: "ablationA4", Title: "Ablation: dimension sweep (LP-backed space)",
			heading: fixed(fmt.Sprintf("Dimension sweep (n = %d anti-correlated scalar-product records)", dimensionN)),
			columns: []string{"d", "subdomains", "imh-depth", "search-nodes", "vo-bytes"},
			notes:   static("subdomain counts follow the arrangement of O(n^2) difference hyperplanes, the paper's O(n^{2d}) regime"),
			sweep:   func(*Config) []point { return grid([]int{dimensionN}, []int{1, 2, 3}) }, row: dimensionRow,
			fixtures: func(p point) []fixture { return []fixture{{n: p.n, dim: p.k, dist: workload.AntiCorrelated}} }},

		{ID: "shardS1", Title: "Sharding: subdomain split by shard count",
			columns:  []string{"n", "K", "subdomains-total", "subdomains-max-shard", "signatures", "identity"},
			notes:    static("identity: sampled routed queries answered by the K-shard set match the K=1 build record-for-record"),
			identity: "identity", sweep: overShards, row: shardRow,
			// The identity baseline is always a true K=1 build, whatever
			// shard counts the sweep was configured with; a K=1 sweep row
			// names the same fixture twice, so it reuses the baseline
			// instead of rebuilding.
			fixtures: func(p point) []fixture { return []fixture{shardSet(p.n, 1), shardSet(p.n, p.k)} }},
		{ID: "planQ1", Title: "Shard planners: even vs quantile cuts on a clustered workload",
			columns: []string{"n", "K", "planner", "subdomains-min-shard", "subdomains-max-shard", "max/min", "identity"},
			notes: static("dist=clustered regardless of -dist: the skew the quantile planner exists for",
				"identity: sampled routed queries answered by the planned set match the K=1 build record-for-record"),
			identity: "identity", row: planRow,
			sweep: func(c *Config) []point { // K=1 has no cut to plan
				ks := slices.DeleteFunc(slices.Clone(c.ShardCounts), func(k int) bool { return k == 1 })
				return grid(c.AblationSizes, ks, "even", "quantile")
			},
			fixtures: func(p point) []fixture {
				base := shardSet(p.n, 1)
				base.dist = workload.Clustered
				planned := base
				planned.shards, planned.quantile = p.k, p.arm == "quantile"
				return []fixture{base, planned}
			}},
	}
}

// overDistributions is A3's sweep: every workload distribution at the
// largest configured size still cheap enough to build five times.
func overDistributions(c *Config) []point {
	n := c.Sizes[0]
	for _, s := range c.Sizes {
		if s > n && s <= 2000 {
			n = s
		}
	}
	var arms []string
	for _, d := range workload.Distributions() {
		arms = append(arms, string(d))
	}
	return grid([]int{n}, nil, arms...)
}

// Lookup finds a figure by ID.
func Lookup(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q", id)
}

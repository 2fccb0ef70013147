// Package itree implements the Intersection tree (I-tree) of Yang & Cai,
// the index the paper extends into the IMH-tree: a binary space partition
// over the arrangement of the pairwise intersection hyperplanes
// f_i - f_j = 0. Internal nodes record one intersection and split their
// region into the "above" (f_i - f_j >= 0) and "below" halves; leaves are
// the subdomains inside which all record functions keep one fixed order.
//
// The paper's §3.1 step 1 inserts every intersection from the root,
// descending to each leaf whose region it genuinely splits; it fixes no
// insertion order. This package fixes the canonical one (canonical.go),
// which makes the tree a pure function of the intersection set, and
// builds it two ways: Build runs the literal insertions over an abstract
// Space — the only construction for the LP-backed n-dimensional
// space — while a univariate build sorts the breakpoints once into an
// Arrangement1D and reads the same tree straight off it
// (BuildCanonical1D), numbering each subdomain by its gap; the sweep,
// the mutation plane and the signature-mesh baseline take their
// boundaries from it too. Only Build, the tests' 1-D reference, sorts
// its leaves to number them.
package itree

import (
	"context"
	"fmt"
	"sort"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/pool"
)

// Intersection is the hyperplane f_I - f_J = 0 between two record
// functions (I < J by convention).
type Intersection struct {
	I, J int
	H    geometry.Hyperplane
}

// Node is an I-tree node. Exactly one of Int (internal intersection node)
// and Leaf (subdomain node) is non-nil. Hash is filled by the IMH layer
// (package core); the I-tree itself is crypto-free.
type Node struct {
	Int          *Intersection
	Above, Below *Node
	Leaf         *Subdomain
	Hash         hashing.Digest
}

// IsLeaf reports whether n is a subdomain node.
func (n *Node) IsLeaf() bool { return n.Leaf != nil }

// Subdomain is a leaf's payload: a region of the domain within which the
// record functions are strictly sortable. ID is left-to-right spatial
// order for 1-D spaces, discovery order otherwise, and indexes the
// per-subdomain data kept by higher layers.
type Subdomain struct {
	ID     int
	Region Region
}

// Tree is a built I-tree.
type Tree struct {
	Space Space
	Root  *Node
	// Subs lists the leaves by ID.
	Subs []*Subdomain
	// NodeCount is the total node count (internal + leaves).
	NodeCount int
	// Inserted counts the intersections that actually split some region
	// (duplicates and out-of-domain intersections insert nothing).
	Inserted int
}

// Pairs1DCtx enumerates the intersections of univariate linear functions
// whose breakpoint falls inside the domain: the one O(n²) scan every 1-D
// build runs, sharded or not (a sharded build splits the list with
// PartitionInters1D). A cheap float prefilter, widened by a margin so no
// in-domain breakpoint is ever excluded, avoids allocating hyperplanes
// for the quadratically many out-of-domain pairs; the exact rational
// check in Space1D.Partition remains the authority.
//
// The row scan is sharded across a worker pool, with cooperative
// cancellation between row chunks. Each worker enumerates a contiguous
// range of rows i (all pairs (i, j), j > i); the chunks are concatenated
// in ascending row order, so the list is byte-identical to the serial
// scan's for every worker count. workers <= 0 means one per CPU.
func Pairs1DCtx(ctx context.Context, fs []funcs.Linear, domain geometry.Box, workers int) ([]Intersection, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: 1-D pair enumeration needs a 1-D domain")
	}
	for i := range fs {
		if fs[i].Dim() != 1 {
			return nil, fmt.Errorf("itree: function %d is not univariate", i)
		}
	}
	n := len(fs)
	w := pool.Workers(workers, n)
	// Row i owns n-1-i pairs, so fixed row ranges straggle; oversplitting
	// the rows and letting the pool load-balance the chunks evens it out.
	// The chunk count never changes the output: chunks are concatenated in
	// ascending row order regardless of which worker ran them.
	chunks := max(min(w*8, n), 1)
	chunkOut := make([][]Intersection, chunks)
	lo, hi := domain.Lo[0], domain.Hi[0]
	if err := pool.RunCtx(ctx, chunks, w, func(_, c int) {
		chunkOut[c] = pairsRows1D(fs, c*n/chunks, (c+1)*n/chunks, lo, hi)
	}); err != nil {
		return nil, err
	}
	total := 0
	for _, co := range chunkOut {
		total += len(co)
	}
	out := make([]Intersection, 0, total)
	for _, co := range chunkOut {
		out = append(out, co...)
	}
	return out, nil
}

// pairsRows1D enumerates the pairs (i, j) for i in [rlo, rhi), j > i,
// whose breakpoint lies in the domain or within its margin, in (i, j)
// lexicographic order: the per-chunk body of Pairs1DCtx.
func pairsRows1D(fs []funcs.Linear, rlo, rhi int, lo, hi float64) []Intersection {
	margin := float64((hi - lo) * 1e-9) // rounded: no fused multiply-add below
	var out []Intersection
	for i := rlo; i < rhi; i++ {
		ci, bi := fs[i].Coef[0], fs[i].Bias
		for j := i + 1; j < len(fs); j++ {
			dc := ci - fs[j].Coef[0]
			if dc == 0 {
				continue // parallel
			}
			t := (fs[j].Bias - bi) / dc
			if t < lo-margin || t > hi+margin {
				continue
			}
			out = append(out, Intersection{
				I: i, J: j,
				H: geometry.Hyperplane{C: []float64{dc}, B: bi - fs[j].Bias},
			})
		}
	}
	return out
}

// PairsND enumerates all non-degenerate pairwise intersections for
// multivariate functions. Whether each hyperplane crosses the domain is
// left to the LP-backed Partition during insertion.
func PairsND(fs []funcs.Linear) []Intersection {
	var out []Intersection
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			h := funcs.Diff(fs[i], fs[j])
			if h.IsDegenerate() {
				continue
			}
			out = append(out, Intersection{I: i, J: j, H: h})
		}
	}
	return out
}

// Build constructs the I-tree by inserting the intersections one by one
// in the canonical content-keyed order under seed (see canonical.go). It
// is the only construction for n-D spaces; univariate builds go through
// NewArrangement1D and BuildCanonical1D, which return the same tree
// without the descents — Build over a 1-D space is the reference the
// tests compare that direct construction against.
func Build(space Space, inters []Intersection, seed int64) (*Tree, error) {
	t := &Tree{
		Space:     space,
		Root:      &Node{Leaf: &Subdomain{Region: space.Root()}},
		NodeCount: 1,
	}
	for _, k := range canonicalOrder(inters, seed) {
		t.insert(t.Root, space.Root(), &inters[k])
	}
	t.enumerate()
	return t, nil
}

// insert pushes one intersection down the subtree rooted at n, whose
// region is given, splitting every leaf the hyperplane crosses.
func (t *Tree) insert(n *Node, region Region, in *Intersection) {
	if n.IsLeaf() {
		above, below, ok := t.Space.Partition(region, in.H)
		if !ok {
			return
		}
		n.Int = in
		n.Above = &Node{Leaf: &Subdomain{Region: above}}
		n.Below = &Node{Leaf: &Subdomain{Region: below}}
		n.Leaf = nil
		t.NodeCount += 2
		t.Inserted++
		return
	}
	// Recompute the child regions (they are not stored, to keep the tree
	// lean), then recurse only into children the hyperplane can split.
	aboveR, belowR, ok := t.Space.Partition(region, n.Int.H)
	if !ok {
		// The node's own hyperplane split this region at construction
		// time; Partition is deterministic, so this cannot happen.
		panic("itree: internal node's hyperplane no longer splits its region")
	}
	if _, _, crosses := t.Space.Partition(aboveR, in.H); crosses {
		t.insert(n.Above, aboveR, in)
	}
	if _, _, crosses := t.Space.Partition(belowR, in.H); crosses {
		t.insert(n.Below, belowR, in)
	}
}

// enumerate assigns Build's subdomain IDs and fills Subs. For a 1-D
// space it sorts the leaves by interval start, so IDs run left to right
// as BuildCanonical1D's gap numbers do; other spaces keep discovery
// order.
func (t *Tree) enumerate() {
	var leaves []*Subdomain
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			leaves = append(leaves, n.Leaf)
			return
		}
		walk(n.Below)
		walk(n.Above)
	}
	walk(t.Root)
	if _, ok := t.Space.(*Space1D); ok {
		sort.Slice(leaves, func(a, b int) bool {
			ia := leaves[a].Region.(Interval1D)
			ib := leaves[b].Region.(Interval1D)
			return ia.Lo.Cmp(ib.Lo) < 0
		})
	}
	for i, l := range leaves {
		l.ID = i
	}
	t.Subs = leaves
}

// Search descends from the root to the subdomain containing x. hop, when
// non-nil, observes every internal node passed and which child was taken
// — the one-signature scheme builds its IMH path from it; callers that
// only need the subdomain pass nil and record nothing. The counter
// observes every node visited (the IMH part of the server's Fig 6
// traversal cost). Search follows the paper's branching rule: go above
// iff f_i(x) - f_j(x) >= 0.
func (t *Tree) Search(x geometry.Point, ctr *metrics.Counter, hop func(n *Node, tookAbove bool)) *Subdomain {
	n := t.Root
	for !n.IsLeaf() {
		ctr.AddNodes(1)
		took := n.Int.H.Side(x) >= 0
		if hop != nil {
			hop(n, took)
		}
		if took {
			n = n.Above
		} else {
			n = n.Below
		}
	}
	ctr.AddNodes(1)
	return n.Leaf
}

// Depth returns the maximum root-to-leaf depth (nodes on path).
func (t *Tree) Depth() int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		a, b := rec(n.Above), rec(n.Below)
		if a > b {
			return a + 1
		}
		return b + 1
	}
	return rec(t.Root)
}

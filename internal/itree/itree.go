// Package itree implements the Intersection tree (I-tree) of Yang & Cai,
// the index the paper extends into the IMH-tree: a binary space partition
// over the arrangement of the pairwise intersection hyperplanes
// f_i - f_j = 0. Internal nodes record one intersection and split their
// region into the "above" (f_i - f_j >= 0) and "below" halves; leaves are
// the subdomains inside which all record functions keep one fixed order.
//
// The paper's §3.1 step 1 inserts every intersection from the root,
// descending to each leaf whose region it genuinely splits; it fixes no
// insertion order. This package fixes one per space, so the tree is a
// pure function of the intersection set: Build runs the literal
// insertions in the canonical order (canonical.go) over the LP-backed
// n-dimensional space, while a univariate build sorts the thresholds
// once into an Arrangement1D and builds the median-split tree over them
// (BuildCanonical1D), numbering each subdomain by its gap — the tree
// inserting the medians first would build. The same arrangement is
// walked by Sweep (sweep.go), which hands each gap's sorted order to the
// IFMH-tree's list chain and to the signature-mesh baseline's run
// signing.
package itree

import (
	"context"
	"fmt"
	"math"
	"slices"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
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

// Pairs1DCtx enumerates the pairs of univariate linear functions whose
// order changes inside the domain, each with its threshold: the list
// NewArrangement1D sorts, and every 1-D build starts from (each shard of
// a sharded build calls it over its own sub-box). The order is exact
// and total on the float line: by exact score (funcs.CmpAt), ties by
// index. A pair's order changes at most once along it, so the pairs
// whose order at the floats lo and hi differs are exactly the pairs that
// need a boundary, and they are found in O(n log n + k) for k such
// pairs as the inversions between the two sorted orders (inversions1D),
// rather than by scanning all n²/2 (the paper's build, Nosrati & Cai
// §3.1 step 1, inserts every pairwise intersection; only these split
// the domain). Each pair is Intersection{I < J} with the hyperplane
// x − τ = 0, τ its threshold (threshold): the first float in (lo, hi]
// at which the pair is in its order at hi. The list comes out in merge
// order; NewArrangement1D orders it by τ. ctx is checked once per merge
// pass.
func Pairs1DCtx(ctx context.Context, fs []funcs.Linear, domain geometry.Box) ([]Intersection, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: 1-D pair enumeration needs a 1-D domain")
	}
	for i := range fs {
		if fs[i].Dim() != 1 {
			return nil, fmt.Errorf("itree: function %d is not univariate", i)
		}
	}
	lo, hi := domain.Lo[0], domain.Hi[0]
	pairs, err := inversions1D(ctx, fs, lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]Intersection, len(pairs)) // non-nil: an empty list is still an enumeration
	cs := make([]float64, len(pairs))
	for k, p := range pairs {
		cs[k] = 1
		h := geometry.Hyperplane{C: cs[k : k+1 : k+1], B: -threshold(fs, p[0], p[1], lo, hi)}
		out[k] = Intersection{I: min(p[0], p[1]), J: max(p[0], p[1]), H: h}
	}
	return out, nil
}

// inversions1D returns the pairs of univariate functions whose order
// (rank) at the float lo differs from their order at the float hi, as
// {first at lo, first at hi}: it sorts the functions by their order at
// lo, then merge-sorts them bottom-up by their order at hi, reporting
// every pair a merge inverts.
func inversions1D(ctx context.Context, fs []funcs.Linear, lo, hi float64) ([][2]int, error) {
	n := len(fs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return rank(fs, a, b, lo) })
	out := make([][2]int, 0, n)
	buf := make([]int, n)
	for width := 1; width < n; width *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for l := 0; l < n; l += 2 * width {
			m, r := min(l+width, n), min(l+2*width, n)
			a, b, k := l, m, l
			for ; a < m && b < r; k++ {
				if rank(fs, order[a], order[b], hi) < 0 {
					buf[k], a = order[a], a+1
					continue
				}
				// order[b] passes every left element still waiting.
				for _, i := range order[a:m] {
					out = append(out, [2]int{i, order[b]})
				}
				buf[k], b = order[b], b+1
			}
			k += copy(buf[k:], order[a:m])
			copy(buf[k:], order[b:r])
		}
		order, buf = buf, order
	}
	return out, nil
}

// threshold returns the first float x in (lo, hi] at which function b of
// fs ranks before function a, given that a ranks first at lo and b at
// hi; the pair's order changes once, so b ranks first at every float
// from x on. The search runs over floats as ordered integers (key). The
// quotient of the rounded coefficient differences is the crossing to
// within a few ulps, so it walks from there one float at a time — two
// comparisons when the quotient is the threshold — and bisects what a
// few steps leave bracketed: by value while its ends differ in sign or
// binade, where the key midpoint is a float far smaller than either (one
// whose products leave funcs.CmpAt for big.Rat around 0), and by key
// within one. Either probe keeps the bracket, so the result is the same.
func threshold(fs []funcs.Linear, a, b int, lo, hi float64) float64 {
	fa, fb := fs[a], fs[b]
	after := func(k int64) bool { return rank(fs, b, a, unkey(k)) < 0 }
	l, h := key(lo), key(hi) // after(l) is false, after(h) true
	if t := -(fa.Bias - fb.Bias) / (fa.Coef[0] - fb.Coef[0]); t > lo && t < hi {
		for g, i := key(t), 0; i < 4 && l < g && g < h; i++ {
			if after(g) {
				h, g = g, g-1
			} else {
				l, g = g, g+1
			}
		}
	}
	for uint64(h-l) > 1 { // h − l may exceed the int64 range
		m := l + int64(uint64(h-l)/2)
		if x, y := unkey(l), unkey(h); math.Float64bits(x)>>52 != math.Float64bits(y)>>52 {
			if v := key(float64(x/2) + float64(y/2)); l < v && v < h {
				m = v
			}
		}
		if after(m) {
			h = m
		} else {
			l = m
		}
	}
	return unkey(h)
}

// key maps a finite float to an integer in the same order, one apart
// for adjacent floats (both zeros map to 0); unkey inverts it.
func key(x float64) int64 {
	k := int64(math.Float64bits(x))
	if k < 0 {
		k = math.MinInt64 - k
	}
	return k
}

func unkey(k int64) float64 {
	if k < 0 {
		k = math.MinInt64 - k
	}
	return math.Float64frombits(uint64(k))
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
// is the construction for n-D spaces; univariate builds go through
// NewArrangement1D and BuildCanonical1D.
func Build(space Space, inters []Intersection, seed int64) *Tree {
	t := &Tree{
		Space:     space,
		Root:      &Node{Leaf: &Subdomain{Region: space.Root()}},
		NodeCount: 1,
	}
	for _, k := range canonicalOrder(inters, seed) {
		t.insert(t.Root, space.Root(), &inters[k])
	}
	t.enumerate()
	return t
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

// enumerate assigns Build's subdomain IDs in discovery order and fills
// Subs.
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

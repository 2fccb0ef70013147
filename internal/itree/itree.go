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
// (BuildCanonical1D), numbering each subdomain by its gap. Only Build,
// the tests' 1-D reference, sorts its leaves to number them. The same
// arrangement is walked by Sweep (sweep.go), which hands each gap's
// sorted order to the IFMH-tree's list chain and to the signature-mesh
// baseline's run signing.
package itree

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"

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

// Pairs1DCtx enumerates the intersections of univariate linear functions
// whose breakpoint lies strictly inside the domain (lo, hi): the pairs
// NewArrangement1D keeps, and the list every 1-D build starts from (each
// shard of a sharded build calls it over its own sub-box). The paper's
// build (Nosrati & Cai §3.1 step 1) inserts every pairwise
// intersection, but only these split the domain, and they are found in
// O(n log n + k) for k crossings rather than by scanning all n²/2 pairs:
// two lines cross strictly inside an interval exactly when their orders
// at its two ends differ, so the crossings are the inversions between
// two sorted orders (inversions1D).
//
// A pair's hyperplane holds the rounded differences c_I − c_J and
// b_I − b_J, so its root t may sit up to 2u·|t| (u = 2⁻⁵³) from the
// lines' own crossing. The inversions are therefore taken over the
// domain widened by 2⁻⁵⁰·max(|lo|, |hi|) on each side, in exact
// arithmetic — a superset of the pairs whose root is inside — and each
// is kept by inside, the one exact rule NewArrangement1D applies too. Each
// pair is Intersection{I < J} with the hyperplane f_I − f_J. The list
// comes out in merge order; NewArrangement1D orders it by breakpoint.
// ctx is checked once per merge pass.
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
	pad := new(big.Rat).SetFloat64(max(math.Abs(lo), math.Abs(hi)))
	pad.Quo(pad, new(big.Rat).SetInt64(1<<50))
	loW := funcs.NewAt(new(big.Rat).Sub(new(big.Rat).SetFloat64(lo), pad))
	hiW := funcs.NewAt(new(big.Rat).Add(new(big.Rat).SetFloat64(hi), pad))
	cands, err := inversions1D(ctx, fs, loW, hiW)
	if err != nil {
		return nil, err
	}
	out := make([]Intersection, 0, len(cands)) // non-nil: an empty list is still an enumeration
	cs := make([]float64, len(cands))
	for _, p := range cands {
		in := crossing(fs, p[0], p[1], cs[len(out):len(out)+1:len(out)+1])
		if inside(in.H, lo, hi) {
			out = append(out, in)
		}
	}
	return out, nil
}

// inversions1D returns the pairs of univariate functions whose order at
// lo strictly differs from their order at hi — the pairs whose lines
// cross strictly between the two points — as unordered index pairs. The
// functions are sorted by value at lo, ties by value at hi and then by
// index, so a pair that meets at lo (or coincides) is already in its
// order at hi; a bottom-up merge sort by value at hi, taking the left
// element on a tie, then reports exactly the pairs it strictly inverts,
// so a pair that meets at hi is not one. Every comparison is
// funcs.CmpAt's exact one.
func inversions1D(ctx context.Context, fs []funcs.Linear, lo, hi funcs.At) ([][2]int, error) {
	n := len(fs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := funcs.CmpAt(fs[a], fs[b], lo); c != 0 {
			return c
		}
		if c := funcs.CmpAt(fs[a], fs[b], hi); c != 0 {
			return c
		}
		return a - b
	})
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
				if funcs.CmpAt(fs[order[a]], fs[order[b]], hi) <= 0 {
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

// crossing returns the intersection of functions i and j, ordered so
// I < J, with the hyperplane f_I − f_J = 0; c is the one-element slice
// its coefficient is stored in.
func crossing(fs []funcs.Linear, i, j int, c []float64) Intersection {
	if i > j {
		i, j = j, i
	}
	c[0] = fs[i].Coef[0] - fs[j].Coef[0]
	return Intersection{I: i, J: j, H: geometry.Hyperplane{C: c, B: fs[i].Bias - fs[j].Bias}}
}

// inside reports whether the univariate hyperplane c·x + b = 0 has a
// root strictly inside (lo, hi), exactly: the membership rule of every
// 1-D enumeration, the one NewArrangement1D applies. The float quotient
// −b/c is the root correctly rounded, and rounding is monotone, so it
// decides every root it does not round onto an edge; one that does is
// decided by Breakpoint1D. A parallel pair or a non-finite coefficient
// has no root.
func inside(h geometry.Hyperplane, lo, hi float64) bool {
	c := h.C[0]
	if math.IsInf(c, 0) {
		return false // the root −b/c would read 0
	}
	t := -h.B / c
	if t != lo && t != hi {
		return t > lo && t < hi // false for NaN and ±Inf
	}
	r, ok := Breakpoint1D(h)
	return ok && r.Cmp(new(big.Rat).SetFloat64(lo)) > 0 && r.Cmp(new(big.Rat).SetFloat64(hi)) < 0
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
			return cmpBreak(ia.Lo, ia.LoCut, ib.Lo, ib.LoCut) < 0
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

package itree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"

	"aqverify/internal/geometry"
)

// Canonical insertion order.
//
// An n-D build must be deterministic: the same table must give the same
// tree, whatever order its pairs are enumerated in or how many workers
// build it. The canonical order gives that. Every intersection gets a
// pseudorandom priority keyed by its content (a seeded FNV-64a of the
// hyperplane's canonical encoding), and Build inserts in ascending
// (priority, hyperplane bytes, I, J) order. Inserting keys into a
// leaf-split BST in ascending priority order yields the treap over
// (key, priority), so the tree is expected-logarithmic (priorities are
// uniform for non-adversarial inputs, whatever order the pairs
// enumerate in) and content-determined.
//
// The priority hash is deliberately non-cryptographic: it only balances
// the tree, never authenticates anything, and a crafted table can at
// worst degrade depth, not soundness. A univariate tree takes no
// priorities: BuildCanonical1D splits the sorted thresholds at their
// median, which is as much a pure function of the content and bounds
// every depth by ⌈log₂ S⌉ for S subdomains.

// priorityOf returns the canonical priority of one intersection: a
// seeded FNV-64a over the hyperplane's canonical byte encoding. It
// depends only on the hyperplane content, not on the pair indexes. The
// seed and the encoding go into a stack buffer (a hyperplane in up to 5
// variables fits) and the hash is inlined, so a priority allocates
// nothing.
func priorityOf(seed int64, h geometry.Hyperplane) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [64]byte
	p := uint64(offset64)
	for _, c := range h.Encode(binary.BigEndian.AppendUint64(buf[:0], uint64(seed))) {
		p ^= uint64(c)
		p *= prime64
	}
	return p
}

// canonCmp is the canonical strict total order on intersections:
// ascending priority, ties broken by the hyperplane's canonical bytes,
// then by (I, J). Two intersections compare equal only when they are
// the same pair of the same hyperplane. Distinct thresholds always
// have distinct hyperplane bytes, so the induced treap shape never
// depends on the (I, J) tail.
func canonCmp(pa uint64, a Intersection, pb uint64, b Intersection) int {
	if c := cmp.Compare(pa, pb); c != 0 {
		return c
	}
	var ea, eb [64]byte
	if c := bytes.Compare(a.H.Encode(ea[:0]), b.H.Encode(eb[:0])); c != 0 {
		return c
	}
	if c := cmp.Compare(a.I, b.I); c != 0 {
		return c
	}
	return cmp.Compare(a.J, b.J)
}

// canonicalOrder returns the indexes of inters sorted by the canonical
// order under the given seed — the insertion sequence Build uses.
func canonicalOrder(inters []Intersection, seed int64) []int {
	prios := make([]uint64, len(inters))
	for i := range inters {
		prios[i] = priorityOf(seed, inters[i].H)
	}
	order := make([]int, len(inters))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return canonCmp(prios[a], inters[a], prios[b], inters[b])
	})
	return order
}

// Group1D is one boundary of a 1-D arrangement: every enumerated pair
// whose threshold is the same float, ordered by (I, J). They share one
// hyperplane, x − T = 0, so Members[0] is the representative only by
// its indexes.
type Group1D struct {
	// T is the threshold, in (lo, hi] of the domain.
	T float64
	// Members lists the group's intersections by (I, J).
	Members []Intersection
}

// Arrangement1D is the threshold-sorted view of a 1-D pair enumeration:
// one group per distinct threshold, ascending. It is the content the
// canonical I-tree is a pure function of, and Sweep walks its gaps.
type Arrangement1D struct {
	// Groups lists the distinct thresholds in ascending order.
	Groups []*Group1D
	// space is the space whose domain the arrangement was built over.
	space *Space1D
}

// NumBreakpoints returns the distinct threshold count (the
// internal-node count of the canonical tree).
func (a *Arrangement1D) NumBreakpoints() int { return len(a.Groups) }

// Gap returns the floats between boundaries g-1 and g (g = 0..S-1 for
// S = NumBreakpoints()+1 gaps): [T_{g-1}, T_g), the domain edges
// closing the ends, and the last gap closed at hi. It is the region of
// the canonical tree's g-th subdomain, and holds at least the float
// T_{g-1} (lo for gap 0).
func (a *Arrangement1D) Gap(g int) Interval1D {
	iv := Interval1D{Lo: a.space.domain.Lo[0], Hi: a.space.domain.Hi[0]}
	if g > 0 {
		iv.Lo = a.Groups[g-1].T
	}
	if g < len(a.Groups) {
		iv.Hi, iv.HiStrict = a.Groups[g].T, true
	}
	return iv
}

// NewArrangement1D builds the arrangement of a Pairs1DCtx enumeration
// over the space's domain: the pairs are sorted by threshold, then by
// (I, J), and grouped by threshold. An enumeration lists each pair
// once, so the order is total and an unstable sort gives the one
// arrangement; members and groups live in two slabs.
func NewArrangement1D(space *Space1D, inters []Intersection) *Arrangement1D {
	members := slices.Clone(inters)
	slices.SortFunc(members, func(a, b Intersection) int {
		if c := cmp.Compare(b.H.B, a.H.B); c != 0 {
			return c // ascending T = −B
		}
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	})
	groups := make([]Group1D, 0, len(members))
	for i := 0; i < len(members); {
		j := i + 1
		for j < len(members) && members[j].H.B == members[i].H.B {
			j++
		}
		groups = append(groups, Group1D{T: -members[i].H.B, Members: members[i:j:j]})
		i = j
	}
	arr := &Arrangement1D{Groups: make([]*Group1D, len(groups)), space: space}
	for g := range groups {
		arr.Groups[g] = &groups[g]
	}
	return arr
}

// BuildCanonical1D builds the univariate I-tree from an arrangement in
// O(S): the median-split tree over its sorted thresholds. The root
// splits at the median boundary and each side recurses on its own
// boundaries, so a subtree over m gaps holds ⌈m/2⌉ on its left and
// every root-to-leaf path takes at most ⌈log₂ S⌉ steps for S gaps. The
// tree is the one inserting each group's members in that pre-order
// builds, a pure function of the thresholds with no seed. Group g's
// internal node lives at slot g of one node slab and gap g's leaf at
// nb+g; the leaf of gap g is the g-th from the left, so it is created as
// Subs[g] with ID g and nothing is sorted. Every univariate tree is
// constructed here.
func BuildCanonical1D(space *Space1D, arr *Arrangement1D) *Tree {
	nb := len(arr.Groups)
	t := &Tree{Space: space, Subs: make([]*Subdomain, nb+1), NodeCount: 2*nb + 1, Inserted: nb}
	// One slab for the nodes, one for the subdomains and one for their
	// regions.
	nodes := make([]Node, 2*nb+1)
	subs := make([]Subdomain, nb+1)
	gaps := make([]Interval1D, nb+1)
	for g := range subs {
		gaps[g] = arr.Gap(g)
		subs[g] = Subdomain{ID: g, Region: &gaps[g]}
		t.Subs[g] = &subs[g]
		nodes[nb+g].Leaf = t.Subs[g]
	}
	// split returns the subtree over gaps lo..hi, split at boundary m
	// (gap m lies immediately left of it, gap m+1 immediately right).
	var split func(lo, hi int) *Node
	split = func(lo, hi int) *Node {
		if lo == hi {
			return &nodes[nb+lo]
		}
		m := lo + (hi-lo)/2
		n := &nodes[m]
		n.Int = &arr.Groups[m].Members[0]
		// "Above" is the halfspace x − T >= 0: the right side.
		n.Below, n.Above = split(lo, m), split(m+1, hi)
		return n
	}
	t.Root = split(0, nb)
	return t
}

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
// The query plane needs a balanced tree, and a build must be
// deterministic: the same table must give the same tree, whatever order
// its pairs are enumerated in or how many workers build it. The
// canonical order gives both. Every intersection gets a pseudorandom
// priority keyed by its content (a seeded FNV-64a of the hyperplane's
// canonical encoding), and insertion proceeds in ascending
// (priority, hyperplane bytes, I, J) order. Inserting keys into a
// leaf-split BST in ascending priority order yields the treap over
// (key, priority) — and a treap with distinct priorities is *unique*
// given its key set. The tree is therefore expected-logarithmic
// (priorities are uniform for non-adversarial inputs, whatever order
// the pairs enumerate in) and content-determined: BuildCanonical1D
// reconstructs the identical tree directly from a sorted threshold
// arrangement in O(S).
//
// The priority hash is deliberately non-cryptographic: it only balances
// the tree, never authenticates anything, and a crafted table can at
// worst degrade depth, not soundness.

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
// whose threshold is the same float, in canonical order. They share one
// hyperplane, x − T = 0, so Members[0] — the member a canonical-order
// insertion would insert first — is the representative only by (I, J).
type Group1D struct {
	// T is the threshold, in (lo, hi] of the domain.
	T float64
	// Members lists the group's intersections in canonical order.
	Members []Intersection
	// prio caches the group's canonical priority.
	prio uint64
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
// canonical order, and grouped by threshold. The order is total over
// distinct pairs, so an unstable sort gives the one arrangement, and
// members and groups live in two slabs.
func NewArrangement1D(space *Space1D, inters []Intersection, seed int64) *Arrangement1D {
	type entry struct {
		in   Intersection
		prio uint64
	}
	entries := make([]entry, len(inters))
	for k, in := range inters {
		entries[k] = entry{in: in, prio: priorityOf(seed, in.H)}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(b.in.H.B, a.in.H.B); c != 0 {
			return c // ascending T = −B
		}
		return canonCmp(a.prio, a.in, b.prio, b.in)
	})
	members := make([]Intersection, len(entries))
	for k, e := range entries {
		members[k] = e.in
	}
	groups := make([]Group1D, 0, len(entries))
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && members[j].H.B == members[i].H.B {
			j++
		}
		groups = append(groups, Group1D{T: -members[i].H.B, Members: members[i:j:j], prio: entries[i].prio})
		i = j
	}
	arr := &Arrangement1D{Groups: make([]*Group1D, len(groups)), space: space}
	for g := range groups {
		arr.Groups[g] = &groups[g]
	}
	return arr
}

// BuildCanonical1D reconstructs the canonical I-tree directly from an
// arrangement in O(S): a stack-based Cartesian construction over the
// threshold sequence (BST by threshold, min-heap by canonical
// priority), with the subdomain leaves attached into the gaps. By treap
// uniqueness it returns the same tree Build produces by inserting the
// arrangement's intersections in canonical order, without any of
// Build's O(S log S) descent work — and without its leaf sort: the leaf
// of gap g is already the g-th from the left, so it is created as
// Subs[g] with ID g. Every univariate tree is constructed here.
func BuildCanonical1D(space *Space1D, arr *Arrangement1D) *Tree {
	nb := len(arr.Groups)
	t := &Tree{Space: space, Subs: make([]*Subdomain, nb+1), NodeCount: 2*nb + 1, Inserted: nb}
	// One slab for the nodes — group g's internal node at g, gap g's
	// leaf at nb+g — one for the subdomains and one for their regions.
	nodes := make([]Node, 2*nb+1)
	subs := make([]Subdomain, nb+1)
	gaps := make([]Interval1D, nb+1)

	// Attach leaves: gap g's leaf is the arrangement's g-th gap.
	leafFor := func(g int) *Node {
		gaps[g] = arr.Gap(g)
		subs[g] = Subdomain{ID: g, Region: &gaps[g]}
		t.Subs[g] = &subs[g]
		nodes[nb+g].Leaf = t.Subs[g]
		return &nodes[nb+g]
	}
	if nb == 0 {
		t.Root = leafFor(0)
		return t
	}

	// Cartesian construction of the internal-node skeleton: walk the
	// thresholds left to right, keeping the rightmost spine on a stack
	// ordered by ascending priority from bottom to top of the tree.
	less := func(a, b int) bool {
		ga, gb := arr.Groups[a], arr.Groups[b]
		return canonCmp(ga.prio, ga.Members[0], gb.prio, gb.Members[0]) < 0
	}
	// left[i] / right[i] are the child *groups* of group i, -1 for none.
	left := make([]int, nb)
	right := make([]int, nb)
	for i := range left {
		left[i], right[i] = -1, -1
	}
	var stack []int
	for i := range arr.Groups {
		var last = -1
		for len(stack) > 0 && less(i, stack[len(stack)-1]) {
			last = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		left[i] = last
		if len(stack) > 0 {
			right[stack[len(stack)-1]] = i
		}
		stack = append(stack, i)
	}
	rootGroup := stack[0]

	// build assembles the subtree rooted at group g by recursing on the
	// skeleton; a missing child means the adjacent gap leaf (gap g lies
	// immediately left of boundary g, gap g+1 immediately right).
	var build func(g int) *Node
	build = func(g int) *Node {
		n := &nodes[g]
		n.Int = &arr.Groups[g].Members[0]
		var l, r *Node
		if left[g] >= 0 {
			l = build(left[g])
		} else {
			l = leafFor(g)
		}
		if right[g] >= 0 {
			r = build(right[g])
		} else {
			r = leafFor(g + 1)
		}
		// "Above" is the halfspace x − T >= 0: the right side.
		n.Above, n.Below = r, l
		return n
	}
	t.Root = build(rootGroup)
	return t
}

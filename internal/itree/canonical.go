package itree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/fnv"
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
// reconstructs the identical tree directly from a sorted breakpoint
// arrangement in O(S).
//
// The priority hash is deliberately non-cryptographic: it only balances
// the tree, never authenticates anything, and a crafted table can at
// worst degrade depth, not soundness.

// priorityOf returns the canonical priority of one intersection: a
// seeded FNV-64a over the hyperplane's canonical byte encoding. It
// depends only on the hyperplane content, not on the pair indexes.
func priorityOf(seed int64, h geometry.Hyperplane) uint64 {
	f := fnv.New64a()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	f.Write(s[:])
	f.Write(h.Encode(nil))
	return f.Sum64()
}

// canonCmp is the canonical strict total order on intersections:
// ascending priority, ties broken by the hyperplane's canonical bytes,
// then by (I, J). Two intersections compare equal only when they are
// the same pair of the same hyperplane. Distinct breakpoints always
// have distinct hyperplane bytes, so the induced treap shape never
// depends on the (I, J) tail.
func canonCmp(pa uint64, a Intersection, pb uint64, b Intersection) int {
	if c := cmp.Compare(pa, pb); c != 0 {
		return c
	}
	if c := bytes.Compare(a.H.Encode(nil), b.H.Encode(nil)); c != 0 {
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

// Group1D is one exact breakpoint of a 1-D arrangement: every
// enumerated intersection whose exact rational breakpoint is the same,
// in canonical order. Members[0] is the representative — the member a
// canonical-order insertion would insert first, whose hyperplane splits
// the leaf and therefore determines the internal node's hyperplane
// bytes and the closed side of the boundary. The exact breakpoint is
// the representative's Breakpoint1D, built only when needed.
type Group1D struct {
	// T is the breakpoint correctly rounded, strictly inside the domain.
	T float64
	// Members lists the group's intersections in canonical order.
	Members []Intersection
	// prios caches each member's canonical priority, index-aligned
	// with Members.
	prios []uint64
}

// Rep returns the group's representative intersection.
func (g *Group1D) Rep() Intersection { return g.Members[0] }

// Arrangement1D is the exact-filtered, breakpoint-sorted view of a 1-D
// intersection enumeration: one group per distinct in-domain breakpoint,
// ascending. It is the content the canonical I-tree is a pure function
// of, and the sweep reads its boundaries off it.
type Arrangement1D struct {
	// Groups lists the distinct breakpoints in ascending order.
	Groups []*Group1D
	// domain is the interval the arrangement was built over.
	domain Interval1D
}

// NumBreakpoints returns the distinct in-domain breakpoint count (the
// internal-node count of the canonical tree).
func (a *Arrangement1D) NumBreakpoints() int { return len(a.Groups) }

// Gap returns the interval between boundaries g-1 and g (g = 0..S-1 for
// S = NumBreakpoints()+1 gaps), the domain edges closing the ends: the
// region of the canonical tree's g-th subdomain. Each interior end is
// cut by its group's representative hyperplane, whose sign decides the
// end's strictness exactly as the insert-path Partition assigns it: the
// side where c·x + b >= 0 keeps the closed end at t.
func (a *Arrangement1D) Gap(g int) Interval1D {
	iv := a.domain
	if g > 0 {
		rep := &a.Groups[g-1].Members[0]
		iv.Lo, iv.LoCut = a.Groups[g-1].T, &rep.H
		iv.LoStrict = rep.H.C[0] <= 0 // c > 0: right side closed at t
	}
	if g < len(a.Groups) {
		rep := &a.Groups[g].Members[0]
		iv.Hi, iv.HiCut = a.Groups[g].T, &rep.H
		iv.HiStrict = rep.H.C[0] > 0 // c > 0: left side open at t
	}
	return iv
}

// NewArrangement1D builds the arrangement of an enumerated intersection
// list over the space's domain: members whose exact breakpoint lies
// strictly inside (lo, hi) are grouped by breakpoint and canonically
// ordered; degenerate, on-edge and out-of-domain entries — the ones the
// exact insertion checks would prune — are dropped by inside, the rule
// Pairs1DCtx enumerates by, so a caller's list need only be a superset.
// Every order here is exact but decided on the rounded breakpoints
// first (cmpBreak): rounding is monotone, so distinct floats order
// their exact breakpoints, and a big.Rat is built only for two equal
// floats. The order (breakpoint, then canonCmp) is total over distinct
// pairs, so an unstable sort gives the one arrangement, and members and
// groups live in three slabs.
func NewArrangement1D(space *Space1D, inters []Intersection, seed int64) *Arrangement1D {
	type entry struct {
		tf   float64
		in   Intersection
		prio uint64
	}
	lo, hi := space.domain.Lo[0], space.domain.Hi[0]
	entries := make([]entry, 0, len(inters))
	for _, in := range inters {
		if !inside(in.H, lo, hi) {
			continue // parallel, on or outside the domain edges: Partition would prune
		}
		tf := -in.H.B / in.H.C[0] // the breakpoint correctly rounded: an IEEE quotient
		entries = append(entries, entry{tf: tf, in: in, prio: priorityOf(seed, in.H)})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmpBreak(a.tf, &a.in.H, b.tf, &b.in.H); c != 0 {
			return c
		}
		return canonCmp(a.prio, a.in, b.prio, b.in)
	})
	arr := &Arrangement1D{domain: space.Root().(Interval1D)}
	members := make([]Intersection, len(entries))
	prios := make([]uint64, len(entries))
	for k, e := range entries {
		members[k], prios[k] = e.in, e.prio
	}
	groups := make([]Group1D, 0, len(entries))
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && cmpBreak(entries[j].tf, &members[j].H, entries[i].tf, &members[i].H) == 0 {
			j++
		}
		groups = append(groups, Group1D{T: entries[i].tf, Members: members[i:j:j], prios: prios[i:j:j]})
		i = j
	}
	arr.Groups = make([]*Group1D, len(groups))
	for g := range groups {
		arr.Groups[g] = &groups[g]
	}
	return arr
}

// BuildCanonical1D reconstructs the canonical I-tree directly from an
// arrangement in O(S): a stack-based Cartesian construction over the
// breakpoint sequence (BST by breakpoint, min-heap by canonical
// priority), with the subdomain leaves attached into the gaps. By treap
// uniqueness it returns the same tree Build produces by inserting the
// arrangement's intersections in canonical order, without any of
// Build's O(S log S) exact-rational descent work — and without its leaf
// sort: the leaf of gap g is already the g-th from the left, so it is
// created as Subs[g] with ID g. Every univariate tree is constructed
// here.
func BuildCanonical1D(space *Space1D, arr *Arrangement1D) *Tree {
	nb := len(arr.Groups)
	t := &Tree{Space: space, Subs: make([]*Subdomain, nb+1), NodeCount: 2*nb + 1, Inserted: nb}
	// One slab for the nodes — group g's internal node at g, gap g's
	// leaf at nb+g — and one for the subdomains.
	nodes := make([]Node, 2*nb+1)
	subs := make([]Subdomain, nb+1)

	// Attach leaves: gap g's leaf is the arrangement's g-th gap.
	leafFor := func(g int) *Node {
		subs[g] = Subdomain{ID: g, Region: arr.Gap(g)}
		t.Subs[g] = &subs[g]
		nodes[nb+g].Leaf = t.Subs[g]
		return &nodes[nb+g]
	}
	if nb == 0 {
		t.Root = leafFor(0)
		return t
	}

	// Cartesian construction of the internal-node skeleton: walk the
	// breakpoints left to right, keeping the rightmost spine on a stack
	// ordered by ascending priority from bottom to top of the tree.
	less := func(a, b int) bool {
		ga, gb := arr.Groups[a], arr.Groups[b]
		return canonCmp(ga.prios[0], ga.Members[0], gb.prios[0], gb.Members[0]) < 0
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
		// "Above" is the halfspace c·x + b >= 0: spatially the right
		// side when c > 0, the left side when c < 0.
		if n.Int.H.C[0] > 0 {
			n.Above, n.Below = r, l
		} else {
			n.Above, n.Below = l, r
		}
		return n
	}
	t.Root = build(rootGroup)
	return t
}

package itree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/big"
	"sort"

	"aqverify/internal/geometry"
)

// Canonical insertion order.
//
// The mutation plane needs a tree whose shape is a pure function of the
// intersection *set*, so that an incremental apply and a full rebuild
// of the mutated table agree byte for byte; the query plane needs it
// balanced. The canonical order gives both. Every intersection gets a
// pseudorandom priority keyed by its content (a seeded FNV-64a of the
// hyperplane's canonical encoding), and insertion proceeds in ascending
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
// depends only on the hyperplane content — not on the pair indexes —
// so a surviving intersection keeps its priority when record indexes
// are remapped by a mutation.
func priorityOf(seed int64, h geometry.Hyperplane) uint64 {
	f := fnv.New64a()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	f.Write(s[:])
	f.Write(h.Encode(nil))
	return f.Sum64()
}

// canonLess is the canonical strict total order on intersections:
// ascending priority, ties broken by the hyperplane's canonical bytes,
// then by (I, J). Two intersections compare equal only when they are
// the same pair of the same hyperplane. Distinct breakpoints always
// have distinct hyperplane bytes, so the induced treap shape never
// depends on the (I, J) tail — which is what keeps the shape stable
// under index remapping.
func canonLess(pa uint64, a Intersection, pb uint64, b Intersection) bool {
	if pa != pb {
		return pa < pb
	}
	ea, eb := a.H.Encode(nil), b.H.Encode(nil)
	if c := compareBytes(ea, eb); c != 0 {
		return c < 0
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return int(a[i]) - int(b[i])
		}
	}
	return len(a) - len(b)
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
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		return canonLess(prios[ia], inters[ia], prios[ib], inters[ib])
	})
	return order
}

// Group1D is one exact breakpoint of a 1-D arrangement: every
// enumerated intersection whose exact rational breakpoint equals T, in
// canonical order. Members[0] is the representative — the member a
// canonical-order insertion would insert first, whose hyperplane splits
// the leaf and therefore determines the internal node's hyperplane
// bytes and the closed side of the boundary.
type Group1D struct {
	// T is the exact breakpoint, strictly inside the domain.
	T *big.Rat
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
// of, and the state the mutation plane keeps between epochs — merging a
// few dirty pairs into an arrangement is linear, where re-enumerating
// them is quadratic.
type Arrangement1D struct {
	// Seed is the canonical-priority seed the arrangement's tree shape
	// is keyed by.
	Seed int64
	// Groups lists the distinct breakpoints in ascending order.
	Groups []*Group1D
}

// NumBreakpoints returns the distinct in-domain breakpoint count (the
// internal-node count of the canonical tree).
func (a *Arrangement1D) NumBreakpoints() int { return len(a.Groups) }

// NewArrangement1D builds the arrangement of an enumerated intersection
// list over the space's domain: members whose exact breakpoint lies
// strictly inside (lo, hi) are grouped by breakpoint and canonically
// ordered; degenerate, on-edge and out-of-domain entries — the ones the
// exact insertion checks would prune — are dropped. The input may carry
// the widened-margin superset Pairs1D enumerates.
func NewArrangement1D(space *Space1D, inters []Intersection, seed int64) (*Arrangement1D, error) {
	root, ok := space.Root().(Interval1D)
	if !ok {
		return nil, fmt.Errorf("itree: 1-D space has a non-interval root region")
	}
	type entry struct {
		t    *big.Rat
		in   Intersection
		prio uint64
	}
	entries := make([]entry, 0, len(inters))
	for _, in := range inters {
		t, ok := Breakpoint1D(in.H)
		if !ok {
			continue // degenerate: parallel functions
		}
		if t.Cmp(root.Lo) <= 0 || t.Cmp(root.Hi) >= 0 {
			continue // on or outside the domain edges: Partition would prune
		}
		entries = append(entries, entry{t: t, in: in, prio: priorityOf(seed, in.H)})
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if c := entries[a].t.Cmp(entries[b].t); c != 0 {
			return c < 0
		}
		return canonLess(entries[a].prio, entries[a].in, entries[b].prio, entries[b].in)
	})
	arr := &Arrangement1D{Seed: seed}
	for i := 0; i < len(entries); {
		j := i
		for j+1 < len(entries) && entries[j+1].t.Cmp(entries[i].t) == 0 {
			j++
		}
		g := &Group1D{T: entries[i].t}
		for k := i; k <= j; k++ {
			g.Members = append(g.Members, entries[k].in)
			g.prios = append(g.prios, entries[k].prio)
		}
		arr.Groups = append(arr.Groups, g)
		i = j + 1
	}
	return arr, nil
}

// BuildCanonical1D reconstructs the canonical I-tree directly from an
// arrangement in O(S): a stack-based Cartesian construction over the
// breakpoint sequence (BST by breakpoint, min-heap by canonical
// priority), with the subdomain leaves attached into the gaps. By treap
// uniqueness it returns the same tree Build produces by inserting the
// arrangement's intersections in canonical order, without any of
// Build's O(S log S) exact-rational descent work — and without its leaf
// sort: the leaf of gap g is already the g-th from the left, so it is
// created as Subs[g] with ID g. Every univariate tree — first build or
// applied mutation — is constructed here.
func BuildCanonical1D(space *Space1D, arr *Arrangement1D) (*Tree, error) {
	root, ok := space.Root().(Interval1D)
	if !ok {
		return nil, fmt.Errorf("itree: 1-D space has a non-interval root region")
	}
	nb := len(arr.Groups)
	t := &Tree{Space: space, Subs: make([]*Subdomain, nb+1), NodeCount: 2*nb + 1, Inserted: nb}
	// One slab for the nodes — group g's internal node at g, gap g's
	// leaf at nb+g — and one for the subdomains.
	nodes := make([]Node, 2*nb+1)
	subs := make([]Subdomain, nb+1)

	// Attach leaves: gap g spans (boundary g-1, boundary g) with the
	// domain edges closing the ends. The strictness at each breakpoint
	// follows the representative hyperplane's sign exactly as the
	// insert-path Partition assigns it: the side where c·x + b >= 0
	// keeps the closed endpoint at t.
	leafFor := func(g int) *Node {
		iv := Interval1D{}
		if g == 0 {
			iv.Lo, iv.LoStrict = root.Lo, root.LoStrict
		} else {
			rep := arr.Groups[g-1].Rep()
			iv.Lo = arr.Groups[g-1].T
			iv.LoStrict = rep.H.C[0] <= 0 // c > 0: right side closed at t
		}
		if g == nb {
			iv.Hi, iv.HiStrict = root.Hi, root.HiStrict
		} else {
			rep := arr.Groups[g].Rep()
			iv.Hi = arr.Groups[g].T
			iv.HiStrict = rep.H.C[0] > 0 // c > 0: left side open at t
		}
		subs[g] = Subdomain{ID: g, Region: iv}
		t.Subs[g] = &subs[g]
		nodes[nb+g].Leaf = t.Subs[g]
		return &nodes[nb+g]
	}
	if nb == 0 {
		t.Root = leafFor(0)
		return t, nil
	}

	// Cartesian construction of the internal-node skeleton: walk the
	// breakpoints left to right, keeping the rightmost spine on a stack
	// ordered by ascending priority from bottom to top of the tree.
	less := func(a, b int) bool {
		ga, gb := arr.Groups[a], arr.Groups[b]
		return canonLess(ga.prios[0], ga.Members[0], gb.prios[0], gb.Members[0])
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
	return t, nil
}

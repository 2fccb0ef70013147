package cache

// PermSink receives the permutation tier's hit/miss/evict events.
// *server.Tally implements it; a nil sink discards them.
type PermSink interface {
	PermHit()
	PermMiss()
	PermEvict()
}

// permKey keys a materialized subdomain permutation by (subdomain,
// epoch): after a mutation epoch advances, the same subdomain id maps
// to a different permutation, so the epoch must be part of the key — a
// cache keyed by subdomain alone would serve the pre-mutation
// permutation and verification would wrongly reject fresh answers.
type permKey struct {
	sub   int
	epoch uint64
}

// PermLRU is the delta-mode permutation cache: a bounded LRU of
// materialized subdomain permutations that core.Tree consults before
// replaying the sweep cursor (see core.PermCache). One PermLRU serves
// one tree lineage — shards reuse subdomain ids, so they must not share
// one — but persists across that lineage's epoch swaps: epoch-keyed
// entries from the old epoch are simply never hit again and age out,
// while subdomains the mutation didn't touch still re-materialize only
// once per epoch.
type PermLRU struct {
	perms *lru[permKey, []int]
	sink  PermSink
}

// NewPermLRU creates a permutation LRU bounded to capacity entries
// (DefaultPermCapacity when capacity < 1). sink may be nil.
func NewPermLRU(capacity int, sink PermSink) *PermLRU {
	if capacity < 1 {
		capacity = DefaultPermCapacity
	}
	return &PermLRU{perms: newLRU[permKey, []int](capacity), sink: sink}
}

// Get implements core.PermCache. The returned slice is shared and must
// be treated as read-only, like a materialized tree's own permutations.
func (l *PermLRU) Get(sub int, epoch uint64) ([]int, bool) {
	perm, ok := l.perms.get(permKey{sub: sub, epoch: epoch})
	if l.sink != nil {
		if ok {
			l.sink.PermHit()
		} else {
			l.sink.PermMiss()
		}
	}
	return perm, ok
}

// Put implements core.PermCache, evicting from the cold end while over
// capacity.
func (l *PermLRU) Put(sub int, epoch uint64, perm []int) {
	for n := l.perms.put(permKey{sub: sub, epoch: epoch}, perm); n > 0 && l.sink != nil; n-- {
		l.sink.PermEvict()
	}
}

// Len returns the cached permutation count, for tests and sizing.
func (l *PermLRU) Len() int { return l.perms.len() }

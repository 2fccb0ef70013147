package cache

import (
	"container/list"
	"sync"
)

// lru is the bounded map the answer cache is: mutex-guarded,
// front-of-list most recent, evicting from the cold end. Invalidation is
// by key, not by sweep — stranded-epoch entries are never hit again and
// age out like any other cold entry.
type lru[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // of *lruEntry[K, V], front = most recently used
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	k K
	v V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// get returns k's value, promoting it to most recently used.
func (l *lru[K, V]) get(k K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.m[k]
	if !ok {
		return v, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).v, true
}

// put inserts or replaces k's value and evicts from the cold end while
// over capacity, reporting how many entries that cost — the cache counts
// them, so /stats shows pressure.
func (l *lru[K, V]) put(k K, v V) (evicted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[k]; ok {
		el.Value.(*lruEntry[K, V]).v = v
		l.ll.MoveToFront(el)
		return 0
	}
	l.m[k] = l.ll.PushFront(&lruEntry[K, V]{k, v})
	for ; l.ll.Len() > l.cap; evicted++ {
		cold := l.ll.Back()
		l.ll.Remove(cold)
		delete(l.m, cold.Value.(*lruEntry[K, V]).k)
	}
	return evicted
}

// update edits k's value in place if it is still cached, without
// promoting it.
func (l *lru[K, V]) update(k K, edit func(*V)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[k]; ok {
		edit(&el.Value.(*lruEntry[K, V]).v)
	}
}

func (l *lru[K, V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

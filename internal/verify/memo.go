package verify

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Memoized is a Verifier that remembers the (digest, signature) pairs
// its inner verifier has accepted and answers those without the
// public-key operation. Verify is a function of (key, digest, signature)
// alone and only acceptances are stored, so every verdict is the inner
// verifier's: a forged pair never enters, and cannot displace what has.
// Pairs live in two generations of at most limit keys each, not an LRU
// list: cur takes new pairs and, once full, becomes old while the
// previous old is dropped (3–4 MB at worst).
type Memoized struct {
	inner Verifier
	limit int

	mu       sync.RWMutex
	cur, old map[[sha256.Size]byte]bool

	hits, misses atomic.Uint64
}

// Memo wraps v. The result is safe for concurrent use: two goroutines
// racing on a new pair both run v, which is redundant but not wrong.
func Memo(v Verifier) *Memoized { return newMemo(v, 1<<15) }

func newMemo(v Verifier, limit int) *Memoized {
	return &Memoized{inner: v, limit: limit, cur: map[[sha256.Size]byte]bool{}}
}

func (m *Memoized) Scheme() Scheme     { return m.inner.Scheme() }
func (m *Memoized) SignatureSize() int { return m.inner.SignatureSize() }

// Hits counts the verifications answered from the memo, Misses the
// accepted pairs it took in; a rejection is neither.
func (m *Memoized) Hits() uint64   { return m.hits.Load() }
func (m *Memoized) Misses() uint64 { return m.misses.Load() }

func (m *Memoized) Verify(digest, sig []byte) error {
	if len(digest) != sha256.Size {
		// The key hashes a concatenation: unambiguous at one length only.
		return m.inner.Verify(digest, sig)
	}
	// A fixed-size key at any signature size; buf keeps it off the heap.
	var buf [sha256.Size + 512]byte
	k := sha256.Sum256(append(append(buf[:0], digest...), sig...))
	m.mu.RLock()
	ok := m.cur[k] || m.old[k]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return nil
	}
	if err := m.inner.Verify(digest, sig); err != nil {
		return err
	}
	m.mu.Lock()
	if !m.cur[k] {
		if len(m.cur) >= m.limit {
			m.old, m.cur = m.cur, map[[sha256.Size]byte]bool{}
		}
		m.cur[k] = true
		m.misses.Add(1)
	}
	m.mu.Unlock()
	return nil
}

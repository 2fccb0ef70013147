// Package cache is the query plane's cache tier: a backend.Backend
// decorator (Wrap) that serves repeated queries from memory instead of
// re-walking the authenticated structure. It keeps one tier: a
// whole-answer LRU keyed by (canonical query, epoch) — the answering
// shard is a deterministic function of that pair, so it travels in the
// entry rather than the key — holding the wire bytes and, once a caller
// has verified them, the verified records.
//
// Concurrent identical queries collapse into one flight: the first
// caller walks the inner backend (and verifies, when it asked to), the
// rest wait and share the result — N callers cost one walk and one
// verification. A waiter whose context is canceled leaves with its own
// ctx error; the flight keeps running for the others. If the *leader*
// is canceled, waiters whose contexts are still live retry instead of
// inheriting the foreign cancellation.
//
// Invalidation is "epoch changed": every lookup keys on the inner
// backend's current epoch (the pin), so a server.Swap or a client
// Refresh strands the previous epoch's entries — the cache never serves
// an entry whose epoch differs from the pin — and the LRU ages them
// out. Refused queries pass through uncached with their shard
// attribution intact; errors are never cached.
//
// The options thread through honestly: WithCounter sees a hit's answer
// bytes and everything the inner backend charged on a miss; WithVerify
// on a hit whose entry is unverified verifies it (and upgrades the
// entry), while an entry verified by an earlier caller is served
// as-is — that reuse is the verified-answer cache's point, and it
// assumes every caller verifies against the same published bundle per
// epoch, which the epoch discipline guarantees for one logical
// database. One Cache must therefore front exactly one logical
// database.
//
// The Cache counts only what it alone knows — hit, epoch-hit, miss,
// collapse, evict (CacheStats) — which /stats over a cache-fronted host
// reports beside the handler's tally of the traffic itself.
package cache

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/wire"
)

// DefaultAnswerCapacity is the default whole-answer LRU capacity
// (entries).
const DefaultAnswerCapacity = 4096

// Option tunes one Wrap call.
type Option func(*config) error

type config struct {
	answerCap int
}

// WithAnswerCapacity bounds the whole-answer LRU to n entries.
func WithAnswerCapacity(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("cache: answer capacity %d must be positive", n)
		}
		c.answerCap = n
		return nil
	}
}

// WithoutPermTier does nothing: the permutation tier it used to switch
// off no longer exists (no query materializes a permutation). It stays
// only because the end-to-end benchmark's replay calls it and a change
// that claims a gain may not edit the benchmark; it leaves with the next
// change that may.
func WithoutPermTier() Option {
	return func(*config) error { return nil }
}

// akey is the whole-answer cache key: the canonical wire encoding of
// the query plus the publication epoch the entry answers for.
type akey struct {
	epoch uint64
	q     string
}

// entry is one cached answer: the wire bytes, the verified records once
// some caller has verified them, and the answering shard and epoch for
// attribution. All fields are immutable once stored (recs is replaced,
// never mutated, by an upgrade).
type entry struct {
	raw   []byte
	recs  []record.Record
	shard int
	epoch uint64
}

// Cache decorates a backend with the answer cache. It implements
// backend.Backend and the cache-counter surface the HTTP handler
// reports (CacheStats); what it wraps — epochs, admission gate, gauges
// — stays reachable through Inner (backend.Epoch, backend.Epochs,
// backend.Find).
type Cache struct {
	inner   backend.Backend
	answers *lru[akey, entry]
	flights flightMap

	lastEpoch atomic.Uint64

	// epochHits is the per-epoch hit gauge: it resets when the pin
	// moves, so operators see a cache refilling after an epoch change
	// instead of a cumulative total that hides the invalidation.
	hits, epochHits, misses, collapses, evictions atomic.Int64
}

// Stats is the cache's counter snapshot: the whole-answer tier's hits
// (cumulative and per current epoch), misses, single-flight collapses
// and LRU evictions. Served by /stats as the "cache" object on hosts
// fronted by Wrap.
type Stats struct {
	Hits      int64 `json:"hits"`
	EpochHits int64 `json:"epochHits"`
	Misses    int64 `json:"misses"`
	Collapses int64 `json:"collapses"`
	Evictions int64 `json:"evictions"`
}

// Wrap decorates b with the answer cache, which works over any backend
// — local, sharded, an in-process server, remote or fanout.
func Wrap(b backend.Backend, opts ...Option) (*Cache, error) {
	if b == nil {
		return nil, fmt.Errorf("cache: a backend to decorate is required")
	}
	cfg := config{answerCap: DefaultAnswerCapacity}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Cache{inner: b, answers: newLRU[akey, entry](cfg.answerCap)}
	c.lastEpoch.Store(backend.Epoch(b))
	return c, nil
}

// Inner returns the decorated backend.
func (c *Cache) Inner() backend.Backend { return c.inner }

// Name implements Backend.
func (c *Cache) Name() string { return c.inner.Name() }

// CacheStats returns the hit/miss/collapse/evict counters.
func (c *Cache) CacheStats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		EpochHits: c.epochHits.Load(),
		Misses:    c.misses.Load(),
		Collapses: c.collapses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Len returns the whole-answer entry count, for tests and sizing.
func (c *Cache) Len() int { return c.answers.len() }

// pin reads the inner backend's current epoch — the one every lookup is
// keyed on, so nothing but the epoch is read here — resetting the
// per-epoch hit gauge when it moved since the last observation: the
// previous epoch's entries are stranded, so hits start over from zero.
// Exactly one observer resets for each change.
func (c *Cache) pin() uint64 {
	e := backend.Epoch(c.inner)
	for {
		last := c.lastEpoch.Load()
		if e == last {
			return e
		}
		if c.lastEpoch.CompareAndSwap(last, e) {
			c.epochHits.Store(0)
			return e
		}
	}
}

// hit records one whole-answer cache hit, cumulative and against the
// current epoch's gauge.
func (c *Cache) hit() {
	c.hits.Add(1)
	c.epochHits.Add(1)
}

// Query implements Backend.
func (c *Cache) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, c, q, opts...)
}

// land publishes a led flight's outcome: a success is stored before
// the flight completes (see flightMap), a failure only completes it —
// errors are never cached.
func (c *Cache) land(k akey, fl *flight, ans backend.Answer, err error) {
	if err == nil {
		// A stored backend.Answer.Raw view would pin the frame it came in.
		e := entryOf(ans)
		e.raw = append(make([]byte, 0, len(e.raw)), e.raw...)
		c.evictions.Add(int64(c.answers.put(storeKey(k, ans), e)))
	}
	c.flights.complete(k, fl, ans, err)
}

// await waits out a foreign flight under this call's context and
// serves its result. A foreign leader's cancellation is not this
// call's: a context error while ctx is still live (foreignCancel) is
// the caller's cue to run the lookup again, and perhaps lead its own
// flight.
func (c *Cache) await(ctx context.Context, call backend.Call, q query.Query, k akey, fl *flight, cost *metrics.Counter) (backend.Answer, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			return backend.Answer{Shard: fl.ans.Shard, Epoch: fl.ans.Epoch}, fl.err
		}
		return c.serve(call, q, k, entryOf(fl.ans), cost)
	case <-ctx.Done():
		return backend.Answer{Shard: wire.ShardNone}, ctx.Err()
	}
}

// serve finishes one cached or flight-shared answer for this call:
// byte accounting always; under WithVerify, reuse of the stored
// verified records, or verification now (upgrading the entry) when no
// caller has verified this entry yet. The reuse rule lives here and
// nowhere else: only the cache knows the records were verified from
// exactly these bytes. A verification failure surfaces as the item's
// error with attribution intact and is never cached. k is the lookup
// key the entry was found (or its flight joined) under.
func (c *Cache) serve(call backend.Call, q query.Query, k akey, e entry, cost *metrics.Counter) (backend.Answer, error) {
	ans := backend.Answer{Raw: e.raw, Records: e.recs, Shard: e.shard, Epoch: e.epoch}
	if e.recs != nil {
		cost.AddBytes(uint64(len(e.raw)))
		return ans, nil
	}
	err := call.Finish(q, &ans, cost)
	if ans.Records != nil {
		// The first verifying caller pays once; later hits reuse.
		c.answers.update(storeKey(k, ans), func(e *entry) { e.recs = ans.Records })
	}
	return ans, err
}

func entryOf(ans backend.Answer) entry {
	return entry{raw: ans.Raw, recs: ans.Records, shard: ans.Shard, epoch: ans.Epoch}
}

// storeKey keys a fresh answer under its own epoch, not the pin the
// lookup used: a swap may have landed mid-flight, and the entry must
// never be served against a pin it doesn't match.
func storeKey(k akey, ans backend.Answer) akey {
	k.epoch = ans.Epoch
	return k
}

// foreignCancel reports whether err is a context error that ctx, still
// live, did not cause: a canceled foreign leader's.
func foreignCancel(ctx context.Context, err error) bool {
	return (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil
}

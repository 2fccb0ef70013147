// Package cache is the query plane's cache tier: a backend.Backend
// decorator (Wrap) that serves repeated queries from memory instead of
// re-walking the authenticated structure. It keeps two tiers:
//
//   - a whole-answer LRU keyed by (canonical query, epoch) — the
//     answering shard is a deterministic function of that pair, so it
//     travels in the entry rather than the key — holding the wire bytes
//     and, once a caller has verified them, the verified records; and
//   - a permutation LRU (PermLRU, installed through core.PermCache)
//     keyed by (subdomain, epoch), which delta-mode queries consult
//     before replaying the sweep cursor.
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
// Counters — hit, miss, collapse, evict for the answer tier; hit, miss,
// evict for the permutation tier — surface through a server.Tally the
// Cache owns, which also tallies every served query, so /stats over a
// cache-fronted host reports both the traffic and the cache's
// effectiveness.
package cache

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/shard"
	"aqverify/internal/wire"
)

// Default tier capacities (entries).
const (
	DefaultAnswerCapacity = 4096
	DefaultPermCapacity   = 1024
)

// Option tunes one Wrap call.
type Option func(*config) error

type config struct {
	answerCap int
	permCap   int
	noPerm    bool
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

// WithPermCapacity bounds each tree's permutation LRU to n entries.
func WithPermCapacity(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("cache: permutation capacity %d must be positive", n)
		}
		c.permCap = n
		return nil
	}
}

// WithoutPermTier skips installing the permutation tier — for isolating
// the whole-answer tier in measurements, or when the caller manages
// core.PermCache installation itself.
func WithoutPermTier() Option {
	return func(c *config) error {
		c.noPerm = true
		return nil
	}
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

// Cache decorates a backend with the two cache tiers. It implements
// backend.Backend, and mirrors the stats surface the HTTP handler
// probes (Stats, ErrorCount, ShardStats, Swaps, Epoch, Epochs,
// NumShards, CacheStats), so a cache-fronted host serves /stats with
// the cache's tally.
type Cache struct {
	inner   backend.Backend
	tally   *server.Tally
	answers *alru
	flights flightMap

	lastEpoch atomic.Uint64
}

// Wrap decorates b with the cache tiers. The permutation tier installs
// on every tree Wrap can reach — a local backend's tree, a sharded
// backend's set (one PermLRU per shard: shards reuse subdomain ids, so
// they must not share one), an in-process server's serving backend
// (re-installed by every Swap, so the caches stay warm across epochs).
// Remote and fanout backends have no local trees; their permutation
// tier lives server-side (vqserve -cache) and Wrap contributes the
// whole-answer tier, which works over any backend.
func Wrap(b backend.Backend, opts ...Option) (*Cache, error) {
	if b == nil {
		return nil, fmt.Errorf("cache: a backend to decorate is required")
	}
	cfg := config{answerCap: DefaultAnswerCapacity, permCap: DefaultPermCapacity}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	shards := 0
	if ns, ok := b.(interface{ NumShards() int }); ok {
		shards = ns.NumShards()
	}
	c := &Cache{inner: b, tally: server.NewTally(shards)}
	c.answers = newALRU(cfg.answerCap, c.tally)
	e := c.epochOf()
	c.lastEpoch.Store(e)
	c.tally.ObserveEpoch(e, c.epochsOf())
	if !cfg.noPerm {
		c.installPermTier(cfg.permCap)
	}
	return c, nil
}

// installPermTier puts permutation LRUs on whatever trees the inner
// backend exposes; see Wrap.
func (c *Cache) installPermTier(capacity int) {
	mk := func() core.PermCache { return NewPermLRU(capacity, c.tally) }
	switch b := c.inner.(type) {
	case interface{ SetPermCaches(func() core.PermCache) }: // *server.Server
		b.SetPermCaches(mk)
	case interface{ Tree() *core.Tree }: // backend.Local
		b.Tree().SetPermCache(mk())
	case interface{ Router() *shard.Router }: // backend.Sharded
		for _, t := range b.Router().Set().Trees {
			t.SetPermCache(mk())
		}
	}
}

// Inner returns the decorated backend.
func (c *Cache) Inner() backend.Backend { return c.inner }

// Name implements Backend.
func (c *Cache) Name() string { return c.inner.Name() }

// Epoch returns the inner backend's live publication epoch — the pin
// every lookup is checked against.
func (c *Cache) Epoch() uint64 { return c.epochOf() }

// Epochs returns the inner backend's per-shard epochs, nil when it
// reports none.
func (c *Cache) Epochs() []uint64 { return c.epochsOf() }

// NumShards returns the inner backend's shard count, 0 when unsharded.
func (c *Cache) NumShards() int {
	if ns, ok := c.inner.(interface{ NumShards() int }); ok {
		return ns.NumShards()
	}
	return 0
}

// Stats returns the cumulative served metrics and answered-query count
// (hits included — the cache's tally covers everything it serves).
func (c *Cache) Stats() (metrics.Counter, int) { return c.tally.Stats() }

// ErrorCount returns how many served queries failed.
func (c *Cache) ErrorCount() int { return c.tally.ErrorCount() }

// ShardStats returns per-shard serving tallies, nil when unsharded.
func (c *Cache) ShardStats() []server.ShardStat { return c.tally.ShardStats() }

// Swaps returns how many epoch changes the cache has observed on its
// pin.
func (c *Cache) Swaps() int { return c.tally.Swaps() }

// CacheStats returns the hit/miss/collapse/evict counters of both
// tiers.
func (c *Cache) CacheStats() server.CacheStats { return c.tally.CacheStats() }

// Len returns the whole-answer entry count, for tests and sizing.
func (c *Cache) Len() int { return c.answers.len() }

func (c *Cache) epochOf() uint64 {
	if e, ok := c.inner.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

func (c *Cache) epochsOf() []uint64 {
	if es, ok := c.inner.(interface{ Epochs() []uint64 }); ok {
		return es.Epochs()
	}
	return nil
}

// pin reads the inner backend's current epoch, updating the tally's
// gauges (and resetting the per-epoch hit gauge) when it moved since
// the last observation. Exactly one observer records each change.
func (c *Cache) pin() uint64 {
	e := c.epochOf()
	for {
		last := c.lastEpoch.Load()
		if e == last {
			return e
		}
		if c.lastEpoch.CompareAndSwap(last, e) {
			c.tally.ObserveSwap(e, c.epochsOf())
			return e
		}
	}
}

// Query implements Backend.
func (c *Cache) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	if err := ctx.Err(); err != nil {
		return backend.Answer{Shard: wire.ShardNone}, err
	}
	ci := backend.ResolveOptions(opts...)
	var cost metrics.Counter
	ans, err := c.queryOne(ctx, ci, q, opts, &cost)
	ci.AddCost(cost)
	c.tally.Record(cost, ans.Shard, err)
	return ans, err
}

// queryOne is the single-query cache path: LRU hit, lead a new flight
// through the inner backend, or wait on an identical in-flight query.
// Caller-side costs accumulate into cost (never into the call's
// WithCounter directly, so batch paths can run it off-goroutine and
// merge after the join).
func (c *Cache) queryOne(ctx context.Context, ci backend.CallInfo, q query.Query, opts []backend.Option, cost *metrics.Counter) (backend.Answer, error) {
	qenc := string(wire.EncodeQuery(q))
	for {
		pin := c.pin()
		k := akey{epoch: pin, q: qenc}
		if e, ok := c.answers.get(k); ok {
			c.tally.CacheHit()
			return c.serve(ci, q, k, e, cost)
		}
		fl, leader := c.flights.join(k)
		if leader {
			c.tally.CacheMiss()
			var sub metrics.Counter
			ans, err := c.inner.Query(ctx, q, backend.ReplaceCounter(opts, &sub)...)
			cost.Add(sub)
			if err == nil {
				c.answers.put(storeKey(k, ans), entryOf(ans))
			}
			c.flights.complete(k, fl, ans, err)
			return ans, err
		}
		c.tally.CacheCollapse()
		select {
		case <-fl.done:
			if fl.err != nil {
				if isCtxError(fl.err) && ctx.Err() == nil {
					continue // the leader was canceled, not us: retry
				}
				return backend.Answer{Shard: fl.ans.Shard, Epoch: fl.ans.Epoch}, fl.err
			}
			return c.serve(ci, q, k, entryOf(fl.ans), cost)
		case <-ctx.Done():
			return backend.Answer{Shard: wire.ShardNone}, ctx.Err()
		}
	}
}

// serve finishes one cached or flight-shared answer for this call:
// byte accounting always; under WithVerify, reuse of the stored
// verified records, or verification now (upgrading the entry) when no
// caller has verified this entry yet. A verification failure surfaces
// as the item's error with attribution intact and is never cached. k is
// the lookup key the entry was found (or its flight joined) under.
func (c *Cache) serve(ci backend.CallInfo, q query.Query, k akey, e entry, cost *metrics.Counter) (backend.Answer, error) {
	cost.AddBytes(uint64(len(e.raw)))
	ans := backend.Answer{Raw: e.raw, Records: e.recs, Shard: e.shard, Epoch: e.epoch}
	if ci.Verifies() && ans.Records == nil {
		recs, err := ci.VerifyRaw(q, e.raw, cost)
		if err != nil {
			return backend.Answer{Shard: e.shard, Epoch: e.epoch}, err
		}
		ans.Records = recs
		c.answers.upgrade(storeKey(k, ans), recs)
	}
	return ans, nil
}

func entryOf(ans backend.Answer) entry {
	return entry{raw: ans.Raw, recs: ans.Records, shard: ans.Shard, epoch: ans.Epoch}
}

// storeKey keys a fresh answer: under its own epoch when it reports one
// (a swap may have landed mid-flight, and the entry must never be
// served against a pin it doesn't match), else under the pin the lookup
// used — the single-query remote exchange carries no epoch word, and
// its answers belong to the pinned client session.
func storeKey(k akey, ans backend.Answer) akey {
	if ans.Epoch != 0 {
		k.epoch = ans.Epoch
	}
	return k
}

func isCtxError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

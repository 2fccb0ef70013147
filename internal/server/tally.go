package server

import (
	"sync"
	"sync/atomic"

	"aqverify/internal/metrics"
)

// Tally is the serving count a query-plane host keeps: answered and
// refused totals, optional per-shard attribution, and the cumulative
// cost counter. The Server records into one; so does the HTTP handler
// when it fronts a backend that keeps no stats of its own (a fanout
// front-end). The plain counts are atomics — they are bumped from every
// concurrent batch worker — and only the multi-field metrics.Counter
// sits behind the mutex.
type Tally struct {
	count    atomic.Int64  // answered queries (paired with total by Record)
	errCount atomic.Int64  // refused queries
	epoch    atomic.Uint64 // serving publication epoch (gauge)
	swaps    atomic.Int64  // epoch swaps observed
	perShard []shardTally  // per-shard tallies; nil when unsharded

	// Cache-plane counters (cache.Wrap records into them; zero and
	// inert on hosts without a cache). epochHits is the per-epoch hit
	// gauge: it resets on every observed swap, so operators can see a
	// cache refilling after an epoch change instead of a cumulative
	// total that hides the invalidation.
	cacheHits      atomic.Int64
	cacheEpochHits atomic.Int64
	cacheMisses    atomic.Int64
	cacheCollapses atomic.Int64
	cacheEvicts    atomic.Int64

	mu    sync.Mutex
	total metrics.Counter
}

// shardTally is one shard's atomic serving tally.
type shardTally struct {
	queries atomic.Int64
	errors  atomic.Int64
	epoch   atomic.Uint64 // the shard's publication epoch (gauge)
}

// NewTally creates a tally attributing to the given shard count (0 =
// unsharded, no per-shard breakdown).
func NewTally(shards int) *Tally {
	t := &Tally{}
	if shards > 0 {
		t.perShard = make([]shardTally, shards)
	}
	return t
}

// Record folds one query's outcome and full cost in; sh attributes it
// to a shard (negative for unsharded or unroutable). The answered count
// is incremented under the same lock that folds the cost, so Stats()
// returns (total, count) as a consistent pair.
func (t *Tally) Record(ctr metrics.Counter, sh int, err error) {
	t.countShard(sh, err)
	if err != nil {
		t.errCount.Add(1)
		return
	}
	t.mu.Lock()
	t.total.Add(ctr)
	t.count.Add(1)
	t.mu.Unlock()
}

// Count tallies one query's outcome without its cost — the batch path,
// which folds the whole batch's cost in one AddCost instead of taking
// the mutex per item. Counts recorded this way may momentarily lead the
// cost total.
func (t *Tally) Count(sh int, err error) {
	t.countShard(sh, err)
	if err != nil {
		t.errCount.Add(1)
		return
	}
	t.count.Add(1)
}

func (t *Tally) countShard(sh int, err error) {
	if sh >= 0 && sh < len(t.perShard) {
		if err != nil {
			t.perShard[sh].errors.Add(1)
		} else {
			t.perShard[sh].queries.Add(1)
		}
	}
}

// AddCost folds a call's cumulative cost in.
func (t *Tally) AddCost(ctr metrics.Counter) {
	t.mu.Lock()
	t.total.Add(ctr)
	t.mu.Unlock()
}

// Stats returns the cumulative metrics and the answered-query count.
func (t *Tally) Stats() (metrics.Counter, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, int(t.count.Load())
}

// ErrorCount returns how many queries were refused.
func (t *Tally) ErrorCount() int { return int(t.errCount.Load()) }

// ObserveEpoch publishes the serving epoch and per-shard epochs into
// the gauges — the initial observation, at host construction. shards
// may be nil (unsharded) or shorter than the tally (extra gauges keep
// their zero).
func (t *Tally) ObserveEpoch(epoch uint64, shards []uint64) {
	t.epoch.Store(epoch)
	for i := range t.perShard {
		if i < len(shards) {
			t.perShard[i].epoch.Store(shards[i])
		}
	}
}

// ObserveSwap is ObserveEpoch for a completed epoch swap: it updates
// the gauges, counts the swap, and resets the per-epoch cache-hit
// gauge — entries from the previous epoch are stranded by the swap, so
// hits start over from zero.
func (t *Tally) ObserveSwap(epoch uint64, shards []uint64) {
	t.ObserveEpoch(epoch, shards)
	t.swaps.Add(1)
	t.cacheEpochHits.Store(0)
}

// Epoch returns the serving publication epoch gauge.
func (t *Tally) Epoch() uint64 { return t.epoch.Load() }

// Swaps returns how many epoch swaps were observed.
func (t *Tally) Swaps() int { return int(t.swaps.Load()) }

// CacheStats is the cache plane's counter snapshot: the whole-answer
// tier's hits (cumulative and per current epoch), misses, single-flight
// collapses and LRU evictions. Served by /stats as the "cache" object on
// hosts fronted by cache.Wrap.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	EpochHits int64 `json:"epochHits"`
	Misses    int64 `json:"misses"`
	Collapses int64 `json:"collapses"`
	Evictions int64 `json:"evictions"`
}

// CacheHit records one whole-answer cache hit (cumulative and against
// the current epoch's gauge).
func (t *Tally) CacheHit() {
	t.cacheHits.Add(1)
	t.cacheEpochHits.Add(1)
}

// CacheMiss records one whole-answer cache miss.
func (t *Tally) CacheMiss() { t.cacheMisses.Add(1) }

// CacheCollapse records one query that joined an in-flight identical
// query instead of walking the backend itself.
func (t *Tally) CacheCollapse() { t.cacheCollapses.Add(1) }

// CacheEvict records one whole-answer entry evicted by the LRU.
func (t *Tally) CacheEvict() { t.cacheEvicts.Add(1) }

// CacheStats returns the cache plane's counter snapshot.
func (t *Tally) CacheStats() CacheStats {
	return CacheStats{
		Hits:      t.cacheHits.Load(),
		EpochHits: t.cacheEpochHits.Load(),
		Misses:    t.cacheMisses.Load(),
		Collapses: t.cacheCollapses.Load(),
		Evictions: t.cacheEvicts.Load(),
	}
}

// ShardStats returns per-shard serving tallies, or nil when unsharded.
// Each shard's Lag is how many epochs it trails the serving epoch — 0
// on a healthy set, nonzero in a multi-process deployment mid-rollout.
func (t *Tally) ShardStats() []ShardStat {
	if t.perShard == nil {
		return nil
	}
	serving := t.epoch.Load()
	out := make([]ShardStat, len(t.perShard))
	for i := range t.perShard {
		e := t.perShard[i].epoch.Load()
		var lag uint64
		if serving > e {
			lag = serving - e
		}
		out[i] = ShardStat{
			Queries: int(t.perShard[i].queries.Load()),
			Errors:  int(t.perShard[i].errors.Load()),
			Epoch:   e,
			Lag:     lag,
		}
	}
	return out
}

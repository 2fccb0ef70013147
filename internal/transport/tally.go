package transport

import (
	"sync"
	"sync/atomic"

	"aqverify/internal/metrics"
)

// tally is the module's one count of served traffic, owned by the
// Handler: answered and refused totals, per-shard attribution when the
// backend is sharded, the cumulative cost counter, and the epoch
// gauges. The plain counts are atomics — the routes of concurrent
// exchanges bump them — and only the multi-field metrics.Counter sits
// behind the mutex.
//
// One rule for cost, on every host: the totals are what
// the exchanges' WithCounter counters reported, whole — a refused
// query's partial traversal included (in practice nothing: validation,
// the domain check and routing all precede the walk) — while queries
// counts answered items only and errors the rest. A batch counts its
// items before it folds its counter in, so counts may momentarily lead
// the cost total.
type tally struct {
	outcomes               // all items
	epoch    atomic.Uint64 // newest serving epoch observed
	swaps    atomic.Int64  // advances of epoch since construction
	perShard []shardTally  // nil when unsharded

	mu    sync.Mutex
	total metrics.Counter
}

// outcomes counts items by how they ended: answered or not.
type outcomes struct{ queries, errors atomic.Int64 }

func (o *outcomes) add(err error) {
	if err != nil {
		o.errors.Add(1)
	} else {
		o.queries.Add(1)
	}
}

// shardTally is one shard's items and its publication epoch (gauge).
type shardTally struct {
	outcomes
	epoch atomic.Uint64
}

// ShardStat is one shard's entry of /stats' perShard array: its tally,
// its publication epoch and its lag behind the serving epoch — 0 on a
// healthy set, nonzero in a multi-process deployment mid-rollout.
type ShardStat struct {
	Queries int    `json:"queries"`
	Errors  int    `json:"errors"`
	Epoch   uint64 `json:"epoch"`
	Lag     uint64 `json:"lag"`
}

// newTally seeds the gauges with the backend's epochs at construction;
// len(shards) fixes the per-shard breakdown (nil = unsharded, none).
func newTally(epoch uint64, shards []uint64) *tally {
	t := &tally{}
	if len(shards) > 0 {
		t.perShard = make([]shardTally, len(shards))
	}
	t.epoch.Store(epoch)
	t.observe(epoch, shards)
	return t
}

// count tallies one item's outcome; sh attributes it to a shard
// (negative for unsharded or unroutable).
func (t *tally) count(sh int, err error) {
	t.add(err)
	if sh >= 0 && sh < len(t.perShard) {
		t.perShard[sh].add(err)
	}
}

// addCost folds one exchange's counter in.
func (t *tally) addCost(ctr metrics.Counter) {
	t.mu.Lock()
	t.total.Add(ctr)
	t.mu.Unlock()
}

// observe publishes the backend's live epochs into the gauges and
// counts a swap when the serving epoch advanced since the last
// observation. The handler calls it wherever it already reads the live
// epoch (/params, /stats, /metrics), so swaps means the same on every
// host — an in-process server, a cache, a front whose shards swap at
// their own pace: serving-epoch advances this host has seen. Exactly
// one of several concurrent observers counts each advance.
func (t *tally) observe(epoch uint64, shards []uint64) {
	for last := t.epoch.Load(); epoch > last; last = t.epoch.Load() {
		if t.epoch.CompareAndSwap(last, epoch) {
			t.swaps.Add(1)
			break
		}
	}
	for i := range min(len(shards), len(t.perShard)) {
		t.perShard[i].epoch.Store(shards[i])
	}
}

// cost returns the cumulative cost counter.
func (t *tally) cost() metrics.Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// shardStats returns the per-shard tallies, nil when unsharded.
func (t *tally) shardStats() []ShardStat {
	if t.perShard == nil {
		return nil
	}
	serving := t.epoch.Load()
	out := make([]ShardStat, len(t.perShard))
	for i := range t.perShard {
		s := &t.perShard[i]
		out[i] = ShardStat{Queries: int(s.queries.Load()), Errors: int(s.errors.Load()), Epoch: s.epoch.Load()}
		if serving > out[i].Epoch {
			out[i].Lag = serving - out[i].Epoch
		}
	}
	return out
}

// Package server models the cloud service provider: it hosts the data
// owner's authenticated data structure, processes analytic queries, and
// returns each result with its verification object serialized over the
// wire. The hosted structure is pluggable (one IFMH-tree or a
// domain-sharded tree set). The Server is a backend.Backend — Query,
// QueryBatch, QueryStream — that additionally keeps cumulative and
// per-shard metrics, consistent under concurrency, and swaps whole
// publication epochs in atomically.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/wire"
)

// Backend is an authenticated data structure the server can host: a
// name plus the evaluation primitive of the query plane in method form
// (see backend.Process for the contract — shard and epoch attribution,
// byte accounting). backend.Local and backend.Sharded are Backends as
// they stand.
type Backend interface {
	// Name identifies the backend ("ifmh-one", "ifmh-multi").
	Name() string
	// Process answers q, returning the serialized answer with its shard
	// and epoch attribution. The counter observes per-query costs.
	Process(q query.Query, ctr *metrics.Counter) (shard int, epoch uint64, raw []byte, err error)
}

// IFMH hosts a core.Tree: a backend.Local under the literal the
// constructors and tests spell it with, plus the serving domain.
type IFMH struct {
	Tree *core.Tree
}

// Name implements Backend. NewLocal only refuses a nil tree, which
// has no mode to name; that fails here as it always has.
func (b IFMH) Name() string {
	l, _ := backend.NewLocal(b.Tree)
	return l.Name()
}

// Domain returns the serving domain (the tree's sub-box when this
// server hosts one shard of a multi-process deployment).
func (b IFMH) Domain() geometry.Box { return b.Tree.Domain() }

// Epoch returns the hosted tree's publication epoch.
func (b IFMH) Epoch() uint64 { return b.Tree.Epoch() }

// Process implements Backend.
func (b IFMH) Process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	l, err := backend.NewLocal(b.Tree)
	if err != nil {
		return wire.ShardNone, 0, nil, err
	}
	return l.Process(q, ctr)
}

// NewShardedIFMH wraps a built shard set for hosting: a backend.Sharded
// over the set's router. It advertises the same backend name as the
// equivalent single tree — sharding is invisible to verifying clients,
// which check every answer against the owner's one published bundle.
func NewShardedIFMH(s *shard.Set) (*backend.Sharded, error) {
	r, err := shard.NewRouter(s)
	if err != nil {
		return nil, err
	}
	return backend.NewSharded(r)
}

// ShardStat is one shard's serving tally, including its publication
// epoch and its lag behind the serving epoch.
type ShardStat struct {
	Queries int    `json:"queries"`
	Errors  int    `json:"errors"`
	Epoch   uint64 `json:"epoch"`
	Lag     uint64 `json:"lag"`
}

// serving is one immutable epoch's snapshot of the hosted backend. The
// server swaps whole snapshots atomically: a query loads the pointer
// once and routes, answers and attributes against that one snapshot, so
// an in-flight query finishes against the epoch it started on even if a
// swap lands mid-query. set and epochs describe a sharded snapshot, nil
// otherwise.
type serving struct {
	backend Backend
	set     *shard.Set // nil for single-tree backends
	epoch   uint64
	epochs  []uint64
}

// sharded is what a hosted backend exposes when it serves a shard set
// (backend.Sharded does): the server groups batches by the set's plan
// and keeps per-shard tallies.
type sharded interface {
	Router() *shard.Router
	Epochs() []uint64
}

// newServing snapshots a backend and its epochs.
func newServing(b Backend) *serving {
	sv := &serving{backend: b, epoch: backend.Epoch(b)}
	if sb, ok := b.(sharded); ok {
		sv.set = sb.Router().Set()
		sv.epochs = sb.Epochs()
	}
	return sv
}

// numShards returns the snapshot's shard count, 0 when unsharded.
func (sv *serving) numShards() int {
	if sv.set == nil {
		return 0
	}
	return sv.set.NumShards()
}

// Server wraps a backend with cumulative metrics. All methods are safe
// for concurrent use; the pluggable backends answer queries from
// immutable (or internally synchronized) state, so many queries may be
// in flight at once. When the backend serves a shard set the server
// additionally dispatches batches shard-by-shard and keeps per-shard
// tallies.
//
// The hosted backend lives behind an atomic snapshot pointer so Swap
// can publish a mutated epoch without a lock on the query path: queries
// in flight keep answering from the snapshot they loaded, new queries
// see the new epoch, and nothing ever observes a half-swapped mix.
//
// The tallies are written by every batch worker, so the plain counts —
// answered, refused, per-shard — are atomics (see Tally); only the
// multi-field metrics.Counter needs the mutex. Stats() still returns
// (total, count) as a consistent pair: the answered-query count is
// incremented under the same lock that folds the query's cost in.
type Server struct {
	serving atomic.Pointer[serving]
	swapMu  sync.Mutex // serializes Swap's validate-then-store
	tally   *Tally
}

// New creates a server for the backend.
func New(b Backend) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("server: backend is required")
	}
	sv := newServing(b)
	s := &Server{}
	s.serving.Store(sv)
	s.tally = NewTally(sv.numShards())
	s.tally.ObserveEpoch(sv.epoch, sv.epochs)
	return s, nil
}

// Swap atomically replaces the hosted backend with a later epoch of the
// same logical database — the serve-side half of the mutation plane
// (build.Apply produces the bundle, Swap publishes it). It refuses
// anything that is not the same database one or more epochs later: a
// different backend name, a changed sharding arity or shard count, an
// epoch that does not strictly advance, and a sharded set whose shards
// disagree on their epoch (a torn set must never be published).
// In-flight queries finish against the snapshot they started on.
func (s *Server) Swap(b Backend) error {
	if b == nil {
		return fmt.Errorf("server: swap needs a backend")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.serving.Load()
	if b.Name() != cur.backend.Name() {
		return fmt.Errorf("server: cannot swap %q in over %q; same logical database required", b.Name(), cur.backend.Name())
	}
	nv := newServing(b)
	if (nv.set == nil) != (cur.set == nil) {
		return fmt.Errorf("server: cannot swap between sharded and unsharded backends")
	}
	if nv.numShards() != cur.numShards() {
		return fmt.Errorf("server: swap changes the shard count from %d to %d; re-deploy instead", cur.numShards(), nv.numShards())
	}
	for i, e := range nv.epochs {
		if e != nv.epoch {
			return fmt.Errorf("server: shard %d is at epoch %d but the set advertises %d; refusing to publish a torn set", i, e, nv.epoch)
		}
	}
	if nv.epoch <= cur.epoch {
		return fmt.Errorf("server: swap epoch %d does not advance the serving epoch %d", nv.epoch, cur.epoch)
	}
	s.serving.Store(nv)
	s.tally.ObserveSwap(nv.epoch, nv.epochs)
	return nil
}

// Epoch returns the serving publication epoch.
func (s *Server) Epoch() uint64 { return s.serving.Load().epoch }

// Epochs returns the serving snapshot's per-shard epochs in shard
// order, nil for a single-tree backend.
func (s *Server) Epochs() []uint64 { return s.serving.Load().epochs }

// Swaps returns how many epoch swaps this server has completed.
func (s *Server) Swaps() int { return s.tally.Swaps() }

// Backend returns the currently serving backend.
func (s *Server) Backend() Backend { return s.serving.Load().backend }

// Name returns the backend name.
func (s *Server) Name() string { return s.serving.Load().backend.Name() }

// Domain returns the hosted backend's serving domain — the full domain
// a shard set partitions, or whatever a single backend reports (every
// built-in one does).
func (s *Server) Domain() (geometry.Box, bool) {
	sv := s.serving.Load()
	if sv.set != nil {
		return sv.set.Plan.Domain, true
	}
	if d, ok := backend.Find[interface{ Domain() geometry.Box }](sv.backend); ok {
		return d.Domain(), true
	}
	return geometry.Box{}, false
}

// NumShards returns the backend's shard count, or 0 for a single-tree
// backend.
func (s *Server) NumShards() int { return s.serving.Load().numShards() }

// Stats returns the cumulative metrics and the answered-query count, as
// a consistent pair.
func (s *Server) Stats() (metrics.Counter, int) { return s.tally.Stats() }

// ShardStats returns per-shard serving tallies, or nil for a
// single-tree backend. Unroutable queries appear in ErrorCount only.
func (s *Server) ShardStats() []ShardStat { return s.tally.ShardStats() }

// ErrorCount returns how many queries the backend refused.
func (s *Server) ErrorCount() int { return s.tally.ErrorCount() }

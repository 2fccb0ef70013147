// Package server models the cloud service provider: it hosts the data
// owner's authenticated data structure — a backend.Local over one
// IFMH-tree or a backend.Sharded over a domain-sharded tree set, as they
// stand — and answers through whichever epoch of it is serving. The
// Server is a backend.Backend — Query, QueryBatch, QueryStream — that is
// the epoch pointer: an atomic serving snapshot, Swap's refusals of
// anything but a later epoch of the same database, and the
// shard-contiguous batch order. It counts nothing it serves; the HTTP
// handler that fronts it does (transport.Handler's tally).
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
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
// and reports the per-shard epochs.
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

// Server hosts a backend behind an atomic snapshot pointer. All methods
// are safe for concurrent use; the pluggable backends answer queries
// from immutable (or internally synchronized) state, so many queries
// may be in flight at once. When the backend serves a shard set the
// server additionally dispatches batches shard-by-shard.
//
// Swap publishes a mutated epoch without a lock on the query path:
// queries in flight keep answering from the snapshot they loaded, new
// queries see the new epoch, and nothing ever observes a half-swapped
// mix.
type Server struct {
	serving atomic.Pointer[serving]
	swapMu  sync.Mutex // serializes Swap's validate-then-store
	swaps   atomic.Int64
}

// New creates a server for the backend.
func New(b Backend) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("server: backend is required")
	}
	s := &Server{}
	s.serving.Store(newServing(b))
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
	s.swaps.Add(1)
	return nil
}

// Epoch returns the serving publication epoch.
func (s *Server) Epoch() uint64 { return s.serving.Load().epoch }

// Epochs returns the serving snapshot's per-shard epochs in shard
// order, nil for a single-tree backend.
func (s *Server) Epochs() []uint64 { return s.serving.Load().epochs }

// Swaps returns how many epoch swaps this server has completed.
func (s *Server) Swaps() int { return int(s.swaps.Load()) }

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

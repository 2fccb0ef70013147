// Package server models the cloud service provider: it hosts the data
// owner's authenticated data structure — a backend.Local over one
// IFMH-tree or a backend.Sharded over a domain-sharded tree set, as they
// stand — and answers through whichever epoch of it is serving. The
// Server is a decorator in the backend plane that only points: an
// atomic pointer to one epoch's snapshot, which every exchange loads
// once and hands the whole exchange to, and Swap's refusals of anything
// but a later epoch of the same database. How a query is routed or a
// batch dispatched is the hosted backend's business; what is served is
// counted by the HTTP handler that fronts it (transport.Handler's
// tally).
package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"aqverify/internal/backend"
	"aqverify/internal/query"
)

// Backend is what the server hosts: any backend of the query plane.
// backend.Local and backend.Sharded are what the owner's build wraps to.
type Backend = backend.Backend

// serving is one immutable epoch's snapshot of the hosted backend, with
// the epochs it reported when it was published. The server swaps whole
// snapshots atomically and an exchange — a query or a batch — loads
// the pointer once, so every item of it is routed, answered and
// attributed by the one epoch it started on even if a swap lands
// mid-exchange. epochs is per shard, nil for an unsharded backend.
type serving struct {
	backend backend.Backend
	epoch   uint64
	epochs  []uint64
}

// newServing snapshots a backend and the epochs it reports.
func newServing(b Backend) *serving {
	return &serving{backend: b, epoch: backend.Epoch(b), epochs: backend.Epochs(b)}
}

// Server hosts a backend behind an atomic snapshot pointer. All methods
// are safe for concurrent use; the hosted backends answer from immutable
// (or internally synchronized) state, so many exchanges may be in
// flight at once.
//
// Swap publishes a mutated epoch without a lock on the query path:
// exchanges in flight keep answering from the snapshot they loaded, new
// exchanges see the new epoch, and nothing ever observes a half-swapped
// mix.
type Server struct {
	serving atomic.Pointer[serving]
	swapMu  sync.Mutex // serializes Swap's validate-then-store
	swaps   atomic.Int64
}

var _ backend.Backend = (*Server)(nil)

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
// In-flight exchanges finish against the snapshot they started on: what
// must be waited out before the previous epoch's resources are released
// (an artifact.Artifact closed) is every exchange that began before the
// swap — not merely the queries then running.
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
	if (nv.epochs == nil) != (cur.epochs == nil) {
		return fmt.Errorf("server: cannot swap between sharded and unsharded backends")
	}
	if len(nv.epochs) != len(cur.epochs) {
		return fmt.Errorf("server: swap changes the shard count from %d to %d; re-deploy instead", len(cur.epochs), len(nv.epochs))
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

// Name implements backend.Backend.
func (s *Server) Name() string { return s.serving.Load().backend.Name() }

// Query implements backend.Backend.
func (s *Server) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return s.serving.Load().backend.Query(ctx, q, opts...)
}

// QueryBatch implements backend.Backend: the whole batch is the serving
// snapshot's, so it answers from one epoch.
func (s *Server) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return s.serving.Load().backend.QueryBatch(ctx, qs, opts...)
}

// Inner returns the currently serving backend (see backend.Find).
func (s *Server) Inner() backend.Backend { return s.serving.Load().backend }

// Epoch returns the serving publication epoch — a read of the stored
// snapshot, so backend.Epoch of a stack over a Server walks no tree.
func (s *Server) Epoch() uint64 { return s.serving.Load().epoch }

// Epochs returns the serving snapshot's per-shard epochs in shard
// order, nil for an unsharded backend.
func (s *Server) Epochs() []uint64 { return s.serving.Load().epochs }

// Swaps returns how many epoch swaps this server has completed.
func (s *Server) Swaps() int { return int(s.swaps.Load()) }

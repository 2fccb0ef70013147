package shard

import (
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
)

// Router maps queries onto the shard set: each query is answered by the
// one tree whose sub-box owns its function input. A Router is immutable
// and safe for concurrent use.
type Router struct {
	set *Set
}

// NewRouter wraps a built set.
func NewRouter(s *Set) (*Router, error) {
	if s == nil || len(s.Trees) == 0 {
		return nil, fmt.Errorf("shard: router needs a built set")
	}
	return &Router{set: s}, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return r.set.NumShards() }

// Set returns the underlying shard set.
func (r *Router) Set() *Set { return r.set }

// Route returns the shard owning the query's function input (see
// Plan.RouteQuery).
func (r *Router) Route(q query.Query) (int, error) { return r.set.Plan.RouteQuery(q) }

// Process routes q to its owning shard and answers it there, returning
// the shard index alongside the answer. The answer window — records,
// boundaries, list length — is identical to what the single-tree build
// over the full domain would return; only the proof material (IMH path
// or subdomain inequality set) is shard-local.
func (r *Router) Process(q query.Query, ctr *metrics.Counter) (int, *core.Answer, error) {
	id, err := r.Route(q)
	if err != nil {
		return -1, nil, err
	}
	ans, err := r.set.Trees[id].Process(q, ctr)
	return id, ans, err
}

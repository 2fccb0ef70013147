package server

import (
	"context"
	"iter"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// The Server is itself a backend.Backend: the hosted structure's
// evaluation lifted into the unified query plane by the backend.Drive*
// helpers.
var _ backend.Backend = (*Server)(nil)

// Query implements backend.Backend.
func (s *Server) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.DriveQuery(ctx, s.process, q, opts...)
}

// QueryBatch implements backend.Backend. Against a sharded backend the
// batch is grouped up front and dispatched in shard-contiguous order:
// unroutable queries fail without occupying a worker, and consecutive
// workers hit the same tree instead of interleaving all K. The answers
// are byte-identical to per-query Query calls — the hosted structures
// answer from immutable state.
func (s *Server) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	// The grouping pass and the per-query snapshots may straddle a Swap;
	// that is safe because a swap never changes the shard plan (Swap
	// enforces the same shard count, and mutations keep the sub-boxes),
	// so the old snapshot's grouping is valid for the new one.
	set := s.serving.Load().set
	if set == nil {
		return backend.DriveBatch(ctx, s.process, qs, opts...)
	}
	groups, rerrs := set.Plan.Group(qs)
	order := make([]int, 0, len(qs))
	for _, g := range groups {
		order = append(order, g...)
	}
	answers, errs := backend.DriveBatchOrdered(ctx, s.process, qs, order, opts...)
	for i, err := range rerrs {
		if err != nil {
			errs[i] = err
			answers[i] = backend.Answer{Shard: wire.ShardNone}
		}
	}
	return answers, errs
}

// QueryStream implements backend.Backend.
func (s *Server) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return backend.DriveStream(ctx, s.process, qs, opts...)
}

// process answers one query through the hosted backend. The serving
// snapshot is loaded exactly once, so a query that races a Swap is
// routed, answered and attributed against one consistent epoch.
func (s *Server) process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	return s.serving.Load().backend.Process(q, ctr)
}

package server_test

import (
	"context"
	"errors"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/wire"
)

// TestQueryBatchCanceled: a done context fails every prevented index
// with ctx.Err(), no bytes and no shard, instead of silently running
// the whole batch — on the unsharded path and on the shard-contiguous
// one — and the same server still answers under a live context.
func TestQueryBatchCanceled(t *testing.T) {
	tree, dom := fixtures(t)
	single := newServer(t, local(t, tree))
	sharded, _, sdom := shardedFixture(t, 3)
	for _, tc := range []struct {
		name string
		s    *server.Server
		x    float64
	}{
		{"single", single, (dom.Lo[0] + dom.Hi[0]) / 2},
		{"sharded", sharded, (sdom.Lo[0] + sdom.Hi[0]) / 2},
	} {
		qs := make([]query.Query, 16)
		for i := range qs {
			qs[i] = query.NewTopK(geometry.Point{tc.x}, 1+i%4)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		answers, errs := tc.s.QueryBatch(ctx, qs, backend.WithWorkers(2))
		for i := range qs {
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("%s query %d: err=%v, want context.Canceled", tc.name, i, errs[i])
			}
			if answers[i].Raw != nil || answers[i].Shard != wire.ShardNone {
				t.Fatalf("%s query %d: prevented item carries raw=%v shard=%d", tc.name, i, answers[i].Raw, answers[i].Shard)
			}
		}
		answers, errs = tc.s.QueryBatch(context.Background(), qs, backend.WithWorkers(2))
		for i := range qs {
			if errs[i] != nil || len(answers[i].Raw) == 0 {
				t.Fatalf("%s live query %d: err=%v, %d bytes", tc.name, i, errs[i], len(answers[i].Raw))
			}
		}
	}
}

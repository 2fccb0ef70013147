package e2e

import (
	"context"
	"reflect"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// TestOneGroupingRoutine pins the single routing/grouping routine
// (shard.Plan.RouteQuery / Group): on-cut, corner, wrong-dimension and
// out-of-domain queries, and the empty batch, partition identically
// whether the batch is grouped by the plan itself, routed query by
// query, or dispatched through Sharded.QueryBatch (bare and behind a
// Server) and Fanout.QueryBatch (observed as each answer's shard
// attribution and error).
func TestOneGroupingRoutine(t *testing.T) {
	ss, plan, _ := surfaces(t, 60, 3, core.MultiSignature)
	dom := plan.Domain
	dispatchers := map[string]backend.Backend{}
	for _, su := range ss {
		switch su.name {
		case "sharded", "server", "fanout":
			dispatchers[su.name] = su.b
		}
	}

	mid := geometry.Point{(plan.Cuts[0] + plan.Cuts[1]) / 2}
	for _, tc := range []struct {
		name string
		qs   []query.Query
	}{
		{"empty", nil},
		{"on-cut", []query.Query{query.NewTopK(geometry.Point{plan.Cuts[0]}, 2), query.NewTopK(geometry.Point{plan.Cuts[1]}, 2)}},
		{"corners", []query.Query{query.NewTopK(geometry.Point{dom.Lo[0]}, 2), query.NewTopK(geometry.Point{dom.Hi[0]}, 2)}},
		{"wrong-dimension", []query.Query{query.NewTopK(geometry.Point{mid[0], mid[0]}, 2), query.NewTopK(nil, 2)}},
		{"out-of-domain", []query.Query{query.NewTopK(geometry.Point{dom.Hi[0] + 1}, 2)}},
		{"mixed", []query.Query{
			query.NewTopK(geometry.Point{dom.Hi[0]}, 1),
			query.NewTopK(geometry.Point{dom.Lo[0] - 1}, 1),
			query.NewRange(geometry.Point{plan.Cuts[1]}, -1, 1),
			query.NewKNN(mid, 2, 0),
			query.NewTopK(geometry.Point{0, 0, 0}, 1),
			query.NewTopK(geometry.Point{plan.Cuts[0]}, 3),
			query.NewBottomK(mid, 2),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups, errs := plan.Group(tc.qs)
			if len(groups) != plan.K() || len(errs) != len(tc.qs) {
				t.Fatalf("Group returned %d groups, %d errs for K=%d, %d queries", len(groups), len(errs), plan.K(), len(tc.qs))
			}
			// On-cut goes right; corners stay in the outermost shards.
			switch tc.name {
			case "on-cut":
				if want := [][]int{nil, {0}, {1}}; !reflect.DeepEqual(groups, want) {
					t.Fatalf("on-cut groups = %v, want %v", groups, want)
				}
			case "corners":
				if want := [][]int{{0}, nil, {1}}; !reflect.DeepEqual(groups, want) {
					t.Fatalf("corner groups = %v, want %v", groups, want)
				}
			case "wrong-dimension", "out-of-domain":
				for i, err := range errs {
					if err == nil {
						t.Fatalf("query %d routed", i)
					}
				}
			}

			// fromShards rebuilds (groups, unroutable) from per-query
			// attribution, the form the dispatchers expose.
			fromShards := func(shards []int, failed []bool) ([][]int, []bool) {
				g := make([][]int, plan.K())
				bad := make([]bool, len(shards))
				for i, sh := range shards {
					if sh == wire.ShardNone {
						bad[i] = failed[i]
						continue
					}
					g[sh] = append(g[sh], i)
				}
				return g, bad
			}
			wantBad := make([]bool, len(tc.qs))
			for i, err := range errs {
				wantBad[i] = err != nil
			}

			shards, failed := make([]int, len(tc.qs)), make([]bool, len(tc.qs))
			for i, q := range tc.qs {
				sh, err := plan.RouteQuery(q)
				shards[i], failed[i] = sh, err != nil
				if err != nil {
					shards[i] = wire.ShardNone
				}
			}
			if g, bad := fromShards(shards, failed); !reflect.DeepEqual(g, groups) || !reflect.DeepEqual(bad, wantBad) {
				t.Fatalf("RouteQuery: groups %v unroutable %v, plan says %v %v", g, bad, groups, wantBad)
			}
			for name, b := range dispatchers {
				answers, derrs := b.QueryBatch(context.Background(), tc.qs)
				if len(answers) != len(tc.qs) || len(derrs) != len(tc.qs) {
					t.Fatalf("%s: %d answers, %d errs for %d queries", name, len(answers), len(derrs), len(tc.qs))
				}
				for i := range tc.qs {
					shards[i], failed[i] = answers[i].Shard, derrs[i] != nil
					if failed[i] != wantBad[i] {
						t.Fatalf("%s query %d: err=%v, plan err=%v", name, i, derrs[i], errs[i])
					}
				}
				if g, bad := fromShards(shards, failed); !reflect.DeepEqual(g, groups) || !reflect.DeepEqual(bad, wantBad) {
					t.Fatalf("%s: groups %v unroutable %v, plan says %v %v", name, g, bad, groups, wantBad)
				}
			}
		})
	}
}

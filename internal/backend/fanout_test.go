package backend

import (
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// fanoutFixture builds the single-tree baseline and a K-shard set, and
// composes the shard trees — each wrapped as an independent Local
// backend, exactly the topology a vqserve-per-shard deployment has —
// into a Fanout.
func fanoutFixture(t *testing.T, n, k int) (*Local, *Fanout, geometry.Box, verify.PublicParams) {
	t.Helper()
	tbl, tree, dom, p := fixture(t, n)
	plan, err := shard.NewPlan(dom, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(tbl, p, plan)
	if err != nil {
		t.Fatal(err)
	}
	kids := make([]Backend, set.NumShards())
	for i, st := range set.Trees {
		if kids[i], err = NewLocal(st); err != nil {
			t.Fatal(err)
		}
	}
	f, err := NewFanout(plan, kids)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return single, f, dom, set.Public()
}

// fanoutQueries mixes random queries of every kind with queries pinned
// exactly on the shard cuts and the domain corners.
func fanoutQueries(dom geometry.Box, cuts []float64, reps int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []query.Query
	add := func(x float64) {
		p := geometry.Point{x}
		qs = append(qs,
			query.NewTopK(p, 1+rng.Intn(8)),
			query.NewBottomK(p, 1+rng.Intn(8)),
			query.NewRange(p, -2, 2),
			query.NewKNN(p, 1+rng.Intn(8), rng.NormFloat64()),
		)
	}
	for i := 0; i < reps; i++ {
		add(dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0]))
	}
	for _, c := range cuts {
		add(c)
	}
	add(dom.Lo[0])
	add(dom.Hi[0])
	return qs
}

// TestFanoutIdentity is the front-end identity: the Fanout over K
// independent shard backends returns the same verdicts and the same
// result windows as the single tree, for every query kind, including
// on-cut and corner queries.
func TestFanoutIdentity(t *testing.T) {
	single, f, dom, pub := fanoutFixture(t, 150, 4)
	ctx := context.Background()
	qs := fanoutQueries(dom, f.Plan().Cuts, 25, 2)

	sAns, sErrs := single.QueryBatch(ctx, qs, WithVerify(pub))
	fAns, fErrs := f.QueryBatch(ctx, qs, WithVerify(pub))
	for i := range qs {
		if (sErrs[i] == nil) != (fErrs[i] == nil) {
			t.Fatalf("query %d: single err=%v, fanout err=%v", i, sErrs[i], fErrs[i])
		}
		if sErrs[i] != nil {
			continue
		}
		if len(sAns[i].Records) != len(fAns[i].Records) {
			t.Fatalf("query %d: single returned %d records, fanout %d",
				i, len(sAns[i].Records), len(fAns[i].Records))
		}
		for j := range sAns[i].Records {
			if sAns[i].Records[j].ID != fAns[i].Records[j].ID {
				t.Fatalf("query %d: record %d differs (%d vs %d)",
					i, j, sAns[i].Records[j].ID, fAns[i].Records[j].ID)
			}
		}
		sa, err := wire.DecodeIFMH(sAns[i].Raw)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := wire.DecodeIFMH(fAns[i].Raw)
		if err != nil {
			t.Fatal(err)
		}
		if sa.VO.ListLen != fa.VO.ListLen || sa.VO.Start != fa.VO.Start {
			t.Fatalf("query %d: window (%d,%d) vs (%d,%d)", i,
				sa.VO.Start, sa.VO.ListLen, fa.VO.Start, fa.VO.ListLen)
		}
	}
}

// TestFanoutOnCutRouting pins the front-end's routing to the plan's:
// queries exactly on a shard cut and at the domain corners land on the
// shard shard.Plan.RouteQuery names, and the batch
// attribution agrees. This mirrors TestRouteBoundaryDeterministic's
// exact-rational cases (a 0..8 domain split in 4 has representable cuts
// 2, 4, 6).
func TestFanoutOnCutRouting(t *testing.T) {
	_, f, dom, _ := fanoutFixture(t, 100, 4)
	ctx := context.Background()

	probe := make([]query.Query, 0, 16)
	for _, c := range f.Plan().Cuts {
		probe = append(probe, query.NewTopK(geometry.Point{c}, 2))
	}
	probe = append(probe,
		query.NewTopK(geometry.Point{dom.Lo[0]}, 2),
		query.NewTopK(geometry.Point{dom.Hi[0]}, 2),
	)
	for i, q := range probe {
		want, err := f.Plan().RouteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := f.Query(ctx, q)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if ans.Shard != want {
			t.Fatalf("probe %d: answered by shard %d, want %d", i, ans.Shard, want)
		}
	}
	answers, errs := f.QueryBatch(ctx, probe)
	for i := range probe {
		if errs[i] != nil {
			t.Fatalf("probe %d: %v", i, errs[i])
		}
		want, _ := f.Plan().RouteQuery(probe[i])
		if answers[i].Shard != want {
			t.Fatalf("probe %d: batch attributed shard %d, want %d", i, answers[i].Shard, want)
		}
	}
	// Unroutable queries are attributed to no shard, on every surface.
	oob := query.NewTopK(geometry.Point{dom.Hi[0] + 1}, 1)
	if ans, err := f.Query(ctx, oob); err == nil || ans.Shard != wire.ShardNone {
		t.Fatalf("unroutable Query: shard %d, err %v", ans.Shard, err)
	}
	oobAns, oobErrs := f.QueryBatch(ctx, []query.Query{oob})
	if oobErrs[0] == nil || oobAns[0].Shard != wire.ShardNone {
		t.Fatalf("unroutable batch item: shard %d, err %v", oobAns[0].Shard, oobErrs[0])
	}

	// The exact-rational tie-break on a dyadic domain: cut i owns shard
	// i+1 (on-cut goes right), corners stay in the outermost shards.
	dyadic := geometry.MustBox([]float64{0}, []float64{8})
	plan, err := shard.NewPlan(dyadic, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plan.Cuts {
		if got, err := plan.Route(geometry.Point{c}); err != nil || got != i+1 {
			t.Fatalf("cut %d (%v) routed to %d (err=%v), want %d", i, c, got, err, i+1)
		}
	}
}

// TestFanoutStream: the merged stream yields every routable index
// exactly once with the owning shard's attribution.
func TestFanoutStream(t *testing.T) {
	_, f, dom, pub := fanoutFixture(t, 100, 4)
	qs := fanoutQueries(dom, f.Plan().Cuts, 10, 3)
	qs = append(qs, query.NewTopK(geometry.Point{dom.Hi[0] + 1}, 1)) // unroutable
	seen := make([]bool, len(qs))
	for i, r := range f.QueryStream(context.Background(), qs, WithVerify(pub)) {
		if seen[i] {
			t.Fatalf("stream yielded item %d twice", i)
		}
		seen[i] = true
		if i == len(qs)-1 {
			if r.Err == nil {
				t.Fatal("unroutable query answered")
			}
			if r.Answer.Shard != wire.ShardNone {
				t.Fatalf("unroutable item attributed to shard %d", r.Answer.Shard)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		want, _ := f.Plan().RouteQuery(qs[i])
		if r.Answer.Shard != want {
			t.Fatalf("item %d attributed to shard %d, want %d", i, r.Answer.Shard, want)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("stream never yielded item %d", i)
		}
	}
}

// TestNewFanoutValidation covers the constructor's error paths.
func TestNewFanoutValidation(t *testing.T) {
	_, f, _, _ := fanoutFixture(t, 60, 2)
	kids := f.kids
	if _, err := NewFanout(shard.Plan{}, kids); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := NewFanout(f.Plan(), kids[:1]); err == nil {
		t.Error("kid count mismatch accepted")
	}
	if _, err := NewFanout(f.Plan(), []Backend{kids[0], nil}); err == nil {
		t.Error("nil kid accepted")
	}
	// A nil first child is an error like any other, not a panic while
	// reading its name.
	if _, err := NewFanout(f.Plan(), []Backend{nil, kids[1]}); err == nil {
		t.Error("nil first kid accepted")
	}
	if _, err := NewFanout(f.Plan(), []Backend{kids[0], named{kids[1], "mesh"}}); err == nil {
		t.Error("mixed backend names accepted")
	}
}

// named overrides a backend's name.
type named struct {
	Backend
	name string
}

func (n named) Name() string { return n.name }

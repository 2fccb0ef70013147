package shard

import (
	"errors"
	"math/rand"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

func buildSets(t *testing.T, mode verify.Mode, n, k int) (*Set, *Set, geometry.Box) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: mode, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	}
	single, err := Build(tbl, p, mustPlan(t, dom, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(tbl, p, mustPlan(t, dom, 0, k))
	if err != nil {
		t.Fatal(err)
	}
	return single, sharded, dom
}

// process routes q to its owning shard and answers it there — what
// every sharded dispatcher does — returning the shard index alongside.
func process(s *Set, q query.Query) (int, *verify.Answer, error) {
	id, err := s.Plan.RouteQuery(q)
	if err != nil {
		return -1, nil, err
	}
	ans, err := s.Trees[id].Process(q, &metrics.Counter{})
	return id, ans, err
}

func mustPlan(t *testing.T, dom geometry.Box, axis, k int) Plan {
	t.Helper()
	plan, err := NewPlan(dom, axis, k)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// identityQueries mixes random queries of every kind with queries
// pinned exactly on the shard cuts.
func identityQueries(dom geometry.Box, cuts []float64, reps int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []query.Query
	add := func(x float64) {
		p := geometry.Point{x}
		qs = append(qs,
			query.NewTopK(p, 1+rng.Intn(10)),
			query.NewBottomK(p, 1+rng.Intn(10)),
			query.NewRange(p, -2, 2),
			query.NewKNN(p, 1+rng.Intn(10), rng.NormFloat64()),
		)
	}
	for i := 0; i < reps; i++ {
		add(dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0]))
	}
	for _, c := range cuts {
		add(c) // exactly on a cut
	}
	add(dom.Lo[0])
	add(dom.Hi[0])
	return qs
}

// TestShardIdentity is the acceptance identity: the same records and the
// same queries produce identical accept/reject verdicts and identical
// per-query answers on a K=1 and a K=4 deployment, for both signing
// modes — including queries exactly on shard cuts and domain corners.
func TestShardIdentity(t *testing.T) {
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		single, sharded, dom := buildSets(t, mode, 200, 4)
		pub := single.Public()
		if got := sharded.Public(); got.Mode != pub.Mode {
			t.Fatalf("%v: sharded mode %v != single %v", mode, got.Mode, pub.Mode)
		}
		for i, q := range identityQueries(dom, sharded.Plan.Cuts, 40, 2) {
			_, a1, err1 := process(single, q)
			_, a4, err4 := process(sharded, q)
			if (err1 == nil) != (err4 == nil) {
				t.Fatalf("%v query %d: K=1 err=%v, K=4 err=%v", mode, i, err1, err4)
			}
			if err1 != nil {
				continue
			}
			if len(a1.Records) != len(a4.Records) {
				t.Fatalf("%v query %d: K=1 returned %d records, K=4 %d",
					mode, i, len(a1.Records), len(a4.Records))
			}
			for j := range a1.Records {
				if a1.Records[j].ID != a4.Records[j].ID {
					t.Fatalf("%v query %d: record %d differs (%d vs %d)",
						mode, i, j, a1.Records[j].ID, a4.Records[j].ID)
				}
			}
			if a1.VO.ListLen != a4.VO.ListLen || a1.VO.Start != a4.VO.Start {
				t.Fatalf("%v query %d: window (%d,%d) vs (%d,%d)", mode, i,
					a1.VO.Start, a1.VO.ListLen, a4.VO.Start, a4.VO.ListLen)
			}
			v1 := verify.Verify(pub, q, a1.Records, &a1.VO, &metrics.Counter{})
			v4 := verify.Verify(pub, q, a4.Records, &a4.VO, &metrics.Counter{})
			if (v1 == nil) != (v4 == nil) {
				t.Fatalf("%v query %d: verdicts differ (K=1 %v, K=4 %v)", mode, i, v1, v4)
			}
			if v1 != nil {
				t.Fatalf("%v query %d: honest answer rejected: %v", mode, i, v1)
			}
		}
	}
}

// TestShardIdentityTamper checks the rejection side of the identity: an
// answer tampered in flight is rejected by the client no matter which
// shard produced it.
func TestShardIdentityTamper(t *testing.T) {
	_, sharded, dom := buildSets(t, verify.MultiSignature, 120, 4)
	pub := sharded.Public()
	for i, c := range append([]float64{(dom.Lo[0] + dom.Hi[0]) / 2}, sharded.Plan.Cuts...) {
		q := query.NewTopK(geometry.Point{c}, 3)
		_, ans, err := process(sharded, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Records) == 0 {
			t.Fatal("empty answer")
		}
		ans.Records[0].Attrs[0] += 1 // forge a score input
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, &metrics.Counter{}); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("query %d: tampered answer accepted (err=%v)", i, err)
		}
	}
}

// TestRouteBoundaryDeterministic pins the routing tie-break: a point
// exactly on cut i always routes to shard i+1, and routing is a pure
// function of the input.
func TestRouteBoundaryDeterministic(t *testing.T) {
	dom := geometry.MustBox([]float64{0}, []float64{8})
	plan := mustPlan(t, dom, 0, 4)
	if len(plan.Cuts) != 3 {
		t.Fatalf("got %d cuts, want 3", len(plan.Cuts))
	}
	for i, c := range plan.Cuts {
		for rep := 0; rep < 3; rep++ {
			got, err := plan.Route(geometry.Point{c})
			if err != nil {
				t.Fatal(err)
			}
			if got != i+1 {
				t.Errorf("cut %d (%v) routed to shard %d, want %d", i, c, got, i+1)
			}
		}
	}
	if got, err := plan.Route(geometry.Point{dom.Lo[0]}); err != nil || got != 0 {
		t.Errorf("domain lo routed to %d (err=%v), want 0", got, err)
	}
	if got, err := plan.Route(geometry.Point{dom.Hi[0]}); err != nil || got != plan.K()-1 {
		t.Errorf("domain hi routed to %d (err=%v), want %d", got, err, plan.K()-1)
	}
	if _, err := plan.Route(geometry.Point{dom.Hi[0] + 1}); err == nil {
		t.Error("out-of-domain point routed")
	}
	// Every sub-box owns its routed points.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := geometry.Point{dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])}
		id, err := plan.Route(x)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Boxes[id].Contains(x) {
			t.Fatalf("point %v routed to shard %d whose box excludes it", x, id)
		}
	}
}

// TestPlanValidation covers the plan constructors' error paths.
func TestPlanValidation(t *testing.T) {
	dom := geometry.MustBox([]float64{0}, []float64{1})
	if _, err := NewPlan(dom, 1, 2); err == nil {
		t.Error("out-of-range axis accepted")
	}
	if _, err := NewPlan(dom, 0, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewPlanCuts(dom, 0, []float64{0}); err == nil {
		t.Error("cut on the domain edge accepted")
	}
	if _, err := NewPlanCuts(dom, 0, []float64{0.6, 0.4}); err == nil {
		t.Error("descending cuts accepted")
	}
	plan, err := NewPlan(dom, 0, 1)
	if err != nil || plan.K() != 1 || len(plan.Cuts) != 0 {
		t.Fatalf("trivial plan = %+v, err %v", plan, err)
	}
}

// TestBuildSharded2D exercises the multivariate path: shard cuts along
// one axis of a 2-D domain, with routing against the LP-backed trees.
func TestBuildSharded2D(t *testing.T) {
	tbl, dom, err := workload.Points(workload.PointsConfig{N: 12, Dim: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: verify.OneSignature, Signer: signer, Domain: dom,
		Template: funcs.ScalarProduct(2), Seed: 1,
	}
	set, err := Build(tbl, p, mustPlan(t, dom, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pub := set.Public()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		x := geometry.Point{
			dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0]),
			dom.Lo[1] + rng.Float64()*(dom.Hi[1]-dom.Lo[1]),
		}
		q := query.NewTopK(x, 3)
		id, ans, err := process(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := set.Plan.Route(x); want != id {
			t.Fatalf("processed on shard %d, routed to %d", id, want)
		}
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, &metrics.Counter{}); err != nil {
			t.Fatalf("query %d rejected: %v", i, err)
		}
	}
}

// TestBuildValidation covers the sharded builder's error paths.
func TestBuildValidation(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: verify.OneSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1),
	}
	if _, err := Build(tbl, p, Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	other := geometry.MustBox([]float64{0}, []float64{1})
	if _, err := Build(tbl, p, mustPlan(t, other, 0, 2)); err == nil {
		t.Error("plan over a different domain accepted")
	}
}

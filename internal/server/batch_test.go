package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
)

// TestQueryErrorKeepsTotalsClean: a refused query moves the fronting
// handler's error count only — not the answered count and, since a
// refusal precedes the walk, not the cumulative totals.
func TestQueryErrorKeepsTotalsClean(t *testing.T) {
	tree, dom := fixtures(t)
	h := host(t, newServer(t, local(t, tree)), tree.Public())
	ctx := context.Background()
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	if _, err := h.Query(ctx, query.NewTopK(x, 3)); err != nil {
		t.Fatal(err)
	}
	ok := h.stats(t)

	// Outside the owner's domain: the backend refuses.
	if _, err := h.Query(ctx, query.NewTopK(geometry.Point{dom.Hi[0] + 10}, 3)); err == nil {
		t.Fatal("out-of-domain query succeeded")
	}
	st := h.stats(t)
	if st.Queries != ok.Queries {
		t.Errorf("answered count moved on error: %d -> %d", ok.Queries, st.Queries)
	}
	if st.NodesVisited != ok.NodesVisited || st.Bytes != ok.Bytes {
		t.Errorf("refused query moved the totals:\nbefore: %+v\nafter:  %+v", ok, st)
	}
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

// TestQueryBatchMatchesQuery: the batched path must
// produce, for every query, exactly the bytes and errors the
// single-query path produces, for any worker count, and charge the
// caller's counter identically.
func TestQueryBatchMatchesQuery(t *testing.T) {
	tree, dom := fixtures(t)
	rng := rand.New(rand.NewSource(7))
	qs := make([]query.Query, 40)
	for i := range qs {
		x := geometry.Point{rng.Float64()*(dom.Hi[0]-dom.Lo[0]) + dom.Lo[0]}
		switch i % 4 {
		case 0:
			qs[i] = query.NewTopK(x, 1+rng.Intn(5))
		case 1:
			qs[i] = query.NewRange(x, -2, 2)
		case 2:
			qs[i] = query.NewKNN(x, 1+rng.Intn(5), rng.NormFloat64())
		default:
			// Every fourth query is refused (outside the domain).
			qs[i] = query.NewTopK(geometry.Point{dom.Hi[0] + 5}, 2)
		}
	}

	ctx := context.Background()
	s := newServer(t, local(t, tree))
	wantOut := make([][]byte, len(qs))
	wantErr := make([]bool, len(qs))
	var want metrics.Counter
	for i, q := range qs {
		ans, err := s.Query(ctx, q, backend.WithCounter(&want))
		wantOut[i], wantErr[i] = ans.Raw, err != nil
	}

	check := func(name string, got metrics.Counter, outs [][]byte, errs []error) {
		t.Helper()
		for i := range qs {
			if (errs[i] != nil) != wantErr[i] {
				t.Fatalf("%s: query %d error = %v, want error=%v", name, i, errs[i], wantErr[i])
			}
			if !bytes.Equal(outs[i], wantOut[i]) {
				t.Fatalf("%s: query %d bytes differ from single-query Query", name, i)
			}
		}
		if got != want {
			t.Errorf("%s: charged %v, sequential charged %v", name, &got, &want)
		}
	}
	for _, workers := range []int{0, 1, 3, 16} {
		var got metrics.Counter
		answers, errs := s.QueryBatch(ctx, qs, backend.WithWorkers(workers), backend.WithCounter(&got))
		if len(answers) != len(qs) || len(errs) != len(qs) {
			t.Fatalf("workers=%d: result lengths %d/%d", workers, len(answers), len(errs))
		}
		outs := make([][]byte, len(qs))
		for i := range answers {
			outs[i] = answers[i].Raw
		}
		check("batch", got, outs, errs)
	}
}

// TestQueryBatchEmpty: a zero-length batch is a no-op.
func TestQueryBatchEmpty(t *testing.T) {
	tree, _ := fixtures(t)
	s := newServer(t, local(t, tree))
	answers, errs := s.QueryBatch(context.Background(), nil, backend.WithWorkers(4))
	if len(answers) != 0 || len(errs) != 0 {
		t.Errorf("empty batch returned %d/%d items", len(answers), len(errs))
	}
}

package server

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// TestQueryErrorKeepsTotalsClean: a failed query must not leak its
// partial traversal cost into the cumulative totals or the answered
// count — only the error count moves.
func TestQueryErrorKeepsTotalsClean(t *testing.T) {
	tree, dom := fixtures(t)
	s, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	if _, err := s.Query(ctx, query.NewTopK(x, 3)); err != nil {
		t.Fatal(err)
	}
	okTotal, okCount := s.Stats()

	// Outside the owner's domain: the backend refuses.
	if _, err := s.Query(ctx, query.NewTopK(geometry.Point{dom.Hi[0] + 10}, 3)); err == nil {
		t.Fatal("out-of-domain query succeeded")
	}
	total, count := s.Stats()
	if count != okCount {
		t.Errorf("answered count moved on error: %d -> %d", okCount, count)
	}
	if total != okTotal {
		t.Errorf("failed query leaked cost into totals:\nbefore: %v\nafter:  %v", &okTotal, &total)
	}
	if got := s.ErrorCount(); got != 1 {
		t.Errorf("ErrorCount = %d, want 1", got)
	}
}

// TestQueryBatchMatchesQuery: the batched and streamed paths must
// produce, for every query, exactly the bytes and errors the
// single-query path produces, for any worker count, and account metrics
// identically.
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
	ref, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	wantOut := make([][]byte, len(qs))
	wantErr := make([]bool, len(qs))
	for i, q := range qs {
		ans, err := ref.Query(ctx, q)
		wantOut[i], wantErr[i] = ans.Raw, err != nil
	}
	refTotal, refCount := ref.Stats()

	check := func(name string, s *Server, outs [][]byte, errs []error) {
		t.Helper()
		for i := range qs {
			if (errs[i] != nil) != wantErr[i] {
				t.Fatalf("%s: query %d error = %v, want error=%v", name, i, errs[i], wantErr[i])
			}
			if !bytes.Equal(outs[i], wantOut[i]) {
				t.Fatalf("%s: query %d bytes differ from single-query Query", name, i)
			}
		}
		total, count := s.Stats()
		if count != refCount || total != refTotal {
			t.Errorf("%s: stats (%v, %d) differ from sequential (%v, %d)", name, &total, count, &refTotal, refCount)
		}
		if got, want := s.ErrorCount(), ref.ErrorCount(); got != want {
			t.Errorf("%s: ErrorCount = %d, want %d", name, got, want)
		}
	}
	for _, workers := range []int{0, 1, 3, 16} {
		s, err := New(IFMH{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		answers, errs := s.QueryBatch(ctx, qs, backend.WithWorkers(workers))
		if len(answers) != len(qs) || len(errs) != len(qs) {
			t.Fatalf("workers=%d: result lengths %d/%d", workers, len(answers), len(errs))
		}
		outs := make([][]byte, len(qs))
		for i := range answers {
			outs[i] = answers[i].Raw
		}
		check("batch", s, outs, errs)

		s, err = New(IFMH{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		outs, errs = make([][]byte, len(qs)), make([]error, len(qs))
		for i, r := range s.QueryStream(ctx, qs, backend.WithWorkers(workers)) {
			outs[i], errs[i] = r.Answer.Raw, r.Err
		}
		check("stream", s, outs, errs)
	}
}

// TestQueryBatchEmpty: a zero-length batch is a no-op.
func TestQueryBatchEmpty(t *testing.T) {
	tree, _ := fixtures(t)
	s, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	answers, errs := s.QueryBatch(context.Background(), nil, backend.WithWorkers(4))
	if len(answers) != 0 || len(errs) != 0 {
		t.Errorf("empty batch returned %d/%d items", len(answers), len(errs))
	}
}

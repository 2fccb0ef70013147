package e2e

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/tamper"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// TestBatchedRoundTrip drives the whole batched pipeline end to end for
// a parallel-built tree: owner builds with a worker pool, server fans a
// mixed batch out across its QueryBatch pool, the user verifies every
// answer across the WithWorkers pool, and a tampering channel takes
// down exactly the answers it touched.
func TestBatchedRoundTrip(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		res := outsource(t, tbl, dom, build.WithMode(mode), build.WithShuffle(0), build.WithWorkers(4))
		srv := newServer(t, local(t, res.Tree))
		opts := []backend.Option{backend.WithVerify(res.Public), backend.WithWorkers(4)}

		rng := rand.New(rand.NewSource(8))
		qs := make([]query.Query, 24)
		for i := range qs {
			x := geometry.Point{rng.Float64()*(dom.Hi[0]-dom.Lo[0]) + dom.Lo[0]}
			switch i % 4 {
			case 0:
				qs[i] = query.NewTopK(x, 1+rng.Intn(6))
			case 1:
				qs[i] = query.NewRange(x, -2, 2)
			case 2:
				qs[i] = query.NewKNN(x, 1+rng.Intn(6), rng.NormFloat64())
			default:
				qs[i] = query.NewBottomK(x, 1+rng.Intn(6))
			}
		}

		// Honest channel: every answer verifies and matches the trusted
		// local execution.
		answers, errs := srv.QueryBatch(ctx, qs, opts...)
		for i, ans := range answers {
			if errs[i] != nil {
				t.Fatalf("%v: query %d rejected: %v", mode, i, errs[i])
			}
			want, err := query.Exec(tbl, tpl, qs[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Records) != len(want.Records) {
				t.Fatalf("%v: query %d returned %d records, trusted exec %d", mode, i, len(ans.Records), len(want.Records))
			}
			for j := range want.Records {
				if ans.Records[j].ID != want.Records[j].ID {
					t.Fatalf("%v: query %d record %d: ID %d, want %d", mode, i, j, ans.Records[j].ID, want.Records[j].ID)
				}
			}
		}

		// Tampering channel: flip a bit in every third answer.
		n := 0
		ch := tamper.Channel{Inner: srv, Rewrite: func(_ query.Query, raw []byte) []byte {
			n++
			if n%3 != 0 {
				return raw
			}
			out := append([]byte(nil), raw...)
			out[len(out)/2] ^= 0x08
			return out
		}}
		_, errs = ch.QueryBatch(ctx, qs, opts...)
		for i, err := range errs {
			tampered := (i+1)%3 == 0
			if tampered && !errors.Is(err, verify.ErrVerification) {
				t.Fatalf("%v: tampered query %d: err=%v, want ErrVerification", mode, i, err)
			}
			if !tampered && err != nil {
				t.Fatalf("%v: untampered query %d rejected: %v", mode, i, err)
			}
		}
	}
}

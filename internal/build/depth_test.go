package build

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"aqverify/internal/record"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// TestEvery1DTreeIsLogDeep holds every univariate IMH-tree to the median
// split's bound: a leaf is at most ⌈log₂ S⌉ steps (Depth() − 1) below
// the root of a tree with S subdomains, so a one-signature VO carries at
// most that many path steps. It covers four distributions at n = 500,
// 2 000 and 10 000, as a single tree and as K = 2 and 4 shard sets, each
// shard balanced over its own thresholds, and an Apply rebuild of every
// single tree.
func TestEvery1DTreeIsLogDeep(t *testing.T) {
	ctx := context.Background()
	check := func(what string, r *Result) {
		t.Helper()
		for i, tr := range treesOf(t, r) {
			s := tr.NumSubdomains()
			if steps, bound := tr.Depth()-1, bits.Len(uint(s-1)); steps > bound {
				t.Errorf("%s tree %d: %d steps to its deepest of %d leaves, want <= ⌈log₂ S⌉ = %d", what, i, steps, s, bound)
			}
		}
	}
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Gaussian, workload.AntiCorrelated, workload.Correlated} {
		for _, n := range []int{500, 2000, 10000} {
			spec := testSpec(t, n, 1, dist)
			for _, k := range []int{0, 2, 4} {
				opts := []Option{WithMode(verify.OneSignature)}
				if k > 0 {
					opts = append(opts, WithShards(k, 0))
				}
				r, err := Outsource(ctx, spec, opts...)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s n=%d K=%d", dist, n, max(k, 1))
				check(what, r)
				if k > 0 || n > 2000 {
					continue
				}
				r, err = Apply(ctx, r, Insert(record.Record{ID: uint64(10 * n), Attrs: []float64{0.5, 0.25}}), Delete(n/2))
				if err != nil {
					t.Fatal(err)
				}
				check(what+" applied", r)
			}
		}
	}
}

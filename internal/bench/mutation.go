package bench

import (
	"context"
	"fmt"
	"maps"
	"math/rand"

	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/record"
)

// mutationBatchSizes is the mutation-batch sweep of the mutM1 figure:
// from the single-record change (the mutation plane's headline case)
// up to batches large enough that a full rebuild starts to compete.
var mutationBatchSizes = []int{1, 4, 16, 64}

// mutationRow measures the mutation plane's central claim: applying a
// record-level mutation batch incrementally (build.Apply — dirty pair
// buckets, patched sweep boundaries, re-hashed spine, reused clean
// signatures) against re-outsourcing the mutated table from scratch,
// at the same epoch. It reports, for each side, the build.WithProgress
// units of the stages the two do differently — pairs examined,
// boundaries re-sorted exactly, signatures issued — and cross-checks
// sampled queries answered by the applied tree against the full
// rebuild — verdicts and result windows must be identical (the
// byte-for-byte identity is pinned by the build-plane tests; here it is
// re-sampled as a figure-level sanity column). Batches mix inserts,
// updates and deletes round-robin. OneSignature mode is the mutation
// plane's sweet spot — a single-record change re-signs one root instead
// of every subdomain. The cycle's clock is benchmark/'s republish.
func mutationRow(ctx context.Context, h *Harness, p point, b []*built) ([]string, error) {
	base := b[0]
	clear(h.units)
	applied, err := build.Apply(ctx, base.Result, mutationBatch(p.n, p.k, h.Cfg.Seed)...)
	if err != nil {
		return nil, fmt.Errorf("apply: %w", err)
	}
	apply := maps.Clone(h.units)
	clear(h.units)

	// The honest competitor: outsource the mutated table from scratch,
	// stamped at the same epoch.
	rebuilt, err := h.outsource(ctx, fixture{n: p.n, epoch: applied.Tree.Epoch()},
		applied.Tree.Table(), base.template, base.domain)
	if err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	rebuild := h.units
	verdict, err := h.identity(ctx, rebuilt.Result, applied)
	if err != nil {
		return nil, err
	}
	// A rebuild's pair stage reports the records it enumerates all pairs
	// of; an apply's the dirty pairs it found.
	records := rebuild[core.StagePairs]
	return []string{fmtInt(p.n), fmtInt(p.k),
		fmtInt(apply[core.StagePairs]), fmtInt(records * (records - 1) / 2),
		fmtInt(apply[core.StageSweep]), fmtInt(rebuild[core.StageSweep]),
		fmtInt(apply[core.StageSign]), fmtInt(rebuild[core.StageSign]), verdict}, nil
}

// mutationBatch builds a deterministic batch of `size` mutations over
// an n-record table: inserts, updates and deletes round-robin, with
// targets spread across the table and fresh IDs above the existing
// range.
func mutationBatch(n, size int, seed int64) []build.Mutation {
	rng := rand.New(rand.NewSource(seed + int64(size)))
	used := make(map[int]bool) // Apply refuses duplicate targets
	pick := func() int {
		for {
			i := rng.Intn(n)
			if !used[i] {
				used[i] = true
				return i
			}
		}
	}
	muts := make([]build.Mutation, 0, size)
	for i := 0; i < size; i++ {
		switch i % 3 {
		case 0: // update in place
			muts = append(muts, build.Update(pick(), record.Record{
				ID:    uint64(n + 1000 + i),
				Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()},
			}))
		case 1: // insert
			muts = append(muts, build.Insert(record.Record{
				ID:    uint64(n + 2000 + i),
				Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()},
			}))
		default: // delete
			muts = append(muts, build.Delete(pick()))
		}
	}
	return muts
}

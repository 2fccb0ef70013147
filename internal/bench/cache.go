package bench

import (
	"context"
	"fmt"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/stats"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// Zipf-workload shape of the cacheC1 protocol (see EXPERIMENTS.md):
// skew 1.1 concentrates most of the stream on a small hot set, the way
// repeated dashboard queries concentrate real serving traffic.
const cacheZipfS = 1.1

// cacheRow measures what the cache tier buys on a skewed workload: the
// same Zipf query stream is answered twice by the same delta-mode tree
// — bare, then fronted by cache.Wrap — with per-query verified
// latencies recorded. The uncached arm prices the full walk every query
// pays without a cache; the cached arm's hits are whole-answer cache
// hits serving already-verified records. The identity column replays
// every distinct query on both arms, so the speedup is only reported
// alongside proof that the cache changed nothing about the answers.
func cacheRow(ctx context.Context, h *Harness, p point, bs []*built) ([]string, error) {
	b := bs[0]
	count := 100 * h.Cfg.Reps
	universe := min(max(count/8, 16), 256)
	qs, distinct, err := workload.Zipf(b.domain, workload.ZipfConfig{
		Count: count, Universe: universe, S: cacheZipfS, Seed: h.Cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	bare, err := backend.NewLocal(b.Tree)
	if err != nil {
		return nil, err
	}
	verify := backend.WithVerify(b.Public)

	// The uncached arm runs first — before the wrap — so the bare walk
	// cannot benefit from the permutation tier.
	walkMS := make([]float64, 0, len(qs))
	for _, q := range qs {
		start := time.Now()
		if _, err := bare.Query(ctx, q, verify); err != nil {
			return nil, fmt.Errorf("uncached walk: %w", err)
		}
		walkMS = append(walkMS, time.Since(start).Seconds()*1e3)
	}

	cached, err := cache.Wrap(bare)
	if err != nil {
		return nil, err
	}
	var hitMS []float64
	seen := make(map[string]bool)
	for _, q := range qs {
		k := string(wire.EncodeQuery(q))
		hit := seen[k]
		seen[k] = true
		start := time.Now()
		if _, err := cached.Query(ctx, q, verify); err != nil {
			return nil, fmt.Errorf("cached query: %w", err)
		}
		if ms := time.Since(start).Seconds() * 1e3; hit {
			hitMS = append(hitMS, ms)
		}
	}
	hitRate := float64(cached.CacheStats().Hits) / float64(len(qs))

	bareAns, bareErrs := bare.QueryBatch(ctx, distinct, verify)
	cachedAns, cachedErrs := cached.QueryBatch(ctx, distinct, verify)

	walkP50, hitP50 := stats.Percentile(walkMS, 50), stats.Percentile(hitMS, 50)
	speedup := "n/a"
	if hitP50 > 0 {
		speedup = fmt.Sprintf("%.1fx", walkP50/hitP50)
	}
	ms := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	return []string{fmtInt(p.n), fmtInt(count), fmtInt(universe),
		fmt.Sprintf("%.2f", hitRate),
		ms(walkP50), ms(stats.Percentile(walkMS, 99)), ms(hitP50), ms(stats.Percentile(hitMS, 99)),
		speedup, identical(bareAns, bareErrs, cachedAns, cachedErrs, false)}, nil
}

package bench

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/front"
	"aqverify/internal/query"
	"aqverify/internal/stats"
)

// The frontR1 fleet: shard groups x replicas per group, and the
// concurrent clients driving it.
const (
	frontShards   = 2
	frontReplicas = 2
	frontClients  = 4
)

// frontRow measures what the front plane's hedging buys under a
// degraded fleet: K shard groups of R replicas each on loopback HTTP
// servers, one replica of shard 0 slowed by an injected delay, and the
// same verified query workload driven through a Frontend twice — hedging
// off, then on. The row reports client-observed p99 and throughput for
// both arms, the hedge counters, and whether every answer verified. The
// tail collapse is the point: an unhedged client waits out the slow
// replica whenever P2C lands on it, a hedged client re-issues to the
// healthy sibling after the p99-tracked deadline and takes the first
// verified answer. See EXPERIMENTS.md for the protocol.
func frontRow(ctx context.Context, h *Harness, p point, bs []*built) ([]string, error) {
	b := bs[0]
	// Replica 1 of shard 0 sleeps for slowNS on every query route once
	// calibration sets it — the bench's stand-in for a replica with a
	// saturated disk or a GC-pausing neighbor. Control routes (/params)
	// stay fast so composition and probing see a live, compatible replica.
	var slowNS atomic.Int64
	groups, stop, err := loopback(b.Set.Trees, frontReplicas, func(tree, replica int, hd http.Handler) http.Handler {
		if tree != 0 || replica != 1 {
			return hd
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if d := time.Duration(slowNS.Load()); d > 0 && strings.HasPrefix(r.URL.Path, "/query") {
				time.Sleep(d)
			}
			hd.ServeHTTP(w, r)
		})
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	qs := mixedQueries(b.domain, 25*h.Cfg.Reps, h.Cfg.Seed)
	verify := backend.WithVerify(b.Public)

	// Calibrate the healthy tail with the delay still zero, then slow the
	// one replica by 10x the healthy p99 — the injected delay must clear
	// the contention tail of the healthy replicas, or "slow" is
	// indistinguishable from an ordinary bad draw (floor 25ms for fast
	// loopbacks).
	cal, err := driveFront(ctx, groups, 0, qs[:min(len(qs), 50)], verify)
	if err != nil {
		return nil, err
	}
	slow := max(time.Duration(10*cal.p99ms*float64(time.Millisecond)), 25*time.Millisecond)
	slowNS.Store(int64(slow))

	unhedged, err := driveFront(ctx, groups, 0, qs, verify)
	if err != nil {
		return nil, err
	}
	hedged, err := driveFront(ctx, groups, 1.0, qs, verify)
	if err != nil {
		return nil, err
	}
	verified := "ok"
	if failed := unhedged.failed + hedged.failed; failed > 0 {
		verified = fmt.Sprintf("FAILED %d", failed)
	}
	return []string{fmtInt(p.n), fmt.Sprintf("%dx%d", frontShards, frontReplicas), fmtInt(len(qs)),
		fmt.Sprint(slow.Round(time.Millisecond)),
		fmt.Sprintf("%.1fms", unhedged.p99ms), fmt.Sprintf("%.1fms", hedged.p99ms),
		fmt.Sprintf("%.2f", hedged.p99ms/unhedged.p99ms),
		fmt.Sprintf("%.0f", unhedged.qps), fmt.Sprintf("%.0f", hedged.qps),
		fmt.Sprint(hedged.snap.Hedges()), fmt.Sprint(hedged.snap.HedgeWins()), verified}, nil
}

// frontRun is one measured arm.
type frontRun struct {
	p99ms  float64
	qps    float64
	failed int
	snap   front.Snapshot
}

// driveFront dials a fresh Frontend over the groups (fresh latency
// digest and counters per arm) and drives the query sequence through it
// from frontClients concurrent clients, verifying every answer.
func driveFront(ctx context.Context, groups [][]string, hedge float64, qs []query.Query, verify backend.Option) (frontRun, error) {
	f, _, err := front.DialFront(groups, front.HTTPClient(), front.Options{
		HedgeFraction: hedge,
		HedgeAfterMin: 2 * time.Millisecond,
		ProbeEvery:    -1, // no background prober: arms stay deterministic
	})
	if err != nil {
		return frontRun{}, err
	}
	defer f.Close()

	var (
		next, failed atomic.Int64
		wg           sync.WaitGroup
	)
	latsMS := make([]float64, len(qs)) // each client writes only the slots it claimed
	start := time.Now()
	for w := 0; w < frontClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				if _, err := f.Query(ctx, qs[i], verify); err != nil {
					failed.Add(1)
				}
				latsMS[i] = time.Since(t0).Seconds() * 1e3
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	return frontRun{
		p99ms:  stats.Percentile(latsMS, 99),
		qps:    float64(len(qs)) / secs,
		failed: int(failed.Load()),
		snap:   f.Snapshot(),
	}, nil
}

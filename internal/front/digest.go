package front

import (
	"sync"
	"time"

	"aqverify/internal/stats"
)

// digest is the decaying latency record a replica set tracks its hedge
// deadline with: a fixed-size ring of recent request completions, so
// the p99 estimate follows the live distribution and old incidents age
// out as traffic flows (a time-decayed sketch without the bookkeeping).
// Only winning completions are recorded — a hedged request contributes
// the latency the client actually observed — which keeps the deadline
// anchored to healthy service time instead of chasing a slow replica's
// tail upward until hedging turns itself off.
type digest struct {
	mu   sync.Mutex
	buf  []float64 // nanoseconds
	n    int       // filled entries, ≤ len(buf)
	next int       // ring write position
}

// digestWindow is the completions per shard the hedge deadline tracks.
const digestWindow = 128

func newDigest() *digest {
	return &digest{buf: make([]float64, digestWindow)}
}

// Record folds one completion in, displacing the oldest once full.
func (d *digest) Record(v time.Duration) {
	d.mu.Lock()
	d.buf[d.next] = float64(v)
	d.next = (d.next + 1) % len(d.buf)
	if d.n < len(d.buf) {
		d.n++
	}
	d.mu.Unlock()
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of the recorded
// window under stats.Percentile's nearest-rank rule — the one rule every
// percentile in the repo is reported with — and 0 when nothing has been
// recorded yet (callers clamp to a floor).
func (d *digest) Percentile(p float64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(stats.Percentile(d.buf[:d.n], p))
}

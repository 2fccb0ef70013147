package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"aqverify/internal/artifact"
)

// loadRow measures the artifact plane's headline ratio: booting a
// server from a saved artifact (internal/artifact — memory-mapped
// blobs, hashes and signatures reused, nothing re-signed) against the
// cold rebuild it replaces. Both paths end in a serving tree; the
// identity column answers sampled queries on each and requires the
// wire-encoded answers — records, VO, signatures — to be byte-for-byte
// equal, so the speedup is bought with zero drift.
func loadRow(ctx context.Context, h *Harness, p point, bs []*built) ([]string, error) {
	b := bs[0]
	dir, err := os.MkdirTemp("", "aqverify-loadA1-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	if _, err := artifact.Save(dir, b.Result); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	saveSecs := time.Since(start).Seconds()

	start = time.Now()
	a, err := artifact.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	loadSecs := time.Since(start).Seconds()
	defer a.Close()
	verdict, err := h.identity(ctx, b.Result, a.Result, true)
	if err != nil {
		return nil, err
	}
	secs := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	return []string{fmtInt(p.n), secs(b.seconds), secs(saveSecs), secs(loadSecs),
		fmt.Sprintf("%.1fx", b.seconds/loadSecs), verdict}, nil
}

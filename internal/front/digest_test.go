package front

import (
	"testing"
	"time"
)

// TestDigestPercentileIsNearestRank pins the hedge deadline's p99 to the
// rule every other percentile in the repo uses (stats.Percentile's
// ceil): the 99th percentile of n samples is the ceil(0.99·n)-th
// smallest — the maximum of a 10-sample window, the 127th of the full
// 128 — not the floor rule's second-largest and 126th.
func TestDigestPercentileIsNearestRank(t *testing.T) {
	for _, tc := range []struct{ n, wantRank int }{
		{1, 1}, {2, 2}, {10, 10}, {100, 99}, {128, 127},
	} {
		d := newDigest()
		for i := tc.n; i >= 1; i-- { // descending, so order of arrival is not rank
			d.Record(time.Duration(i) * time.Millisecond)
		}
		if got, want := d.Percentile(99), time.Duration(tc.wantRank)*time.Millisecond; got != want {
			t.Errorf("p99 of %d samples = %v, want the %d-th smallest (%v)", tc.n, got, tc.wantRank, want)
		}
	}
	if got := newDigest().Percentile(99); got != 0 {
		t.Errorf("p99 of an empty window = %v, want 0", got)
	}
	// The window is a ring: once full, the oldest completion ages out.
	d := newDigest()
	d.Record(time.Hour)
	for i := 0; i < digestWindow; i++ {
		d.Record(time.Millisecond)
	}
	if got := d.Percentile(100); got != time.Millisecond {
		t.Errorf("max after the ring wrapped = %v, want the old incident displaced", got)
	}
}

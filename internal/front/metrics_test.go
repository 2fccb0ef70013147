package front_test

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/front"
	"aqverify/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from the live exposition")

// TestMetricsExposition drives verified traffic (with one slow replica,
// so the hedge counters move) through the full vqfront topology, then
// pins GET /metrics: it must parse as a strict 0.0.4 text exposition,
// export exactly the golden set of families (names and types — renaming
// one is a dashboard-breaking change), and agree with both the driver's
// own counts and the front's Snapshot.
func TestMetricsExposition(t *testing.T) {
	const slow = 50 * time.Millisecond
	var delay atomic.Int64
	fl := newFleet(t, 2, 2, func(si, ri int, h http.Handler) http.Handler {
		if si == 0 && ri == 1 {
			return delayQueries{h, &delay}
		}
		return h
	})
	f, params, err := front.DialFront(fl.groups, nil, front.Options{
		HedgeFraction: 1,
		HedgeAfterMin: 2 * time.Millisecond,
		MaxInFlight:   64,
		ProbeEvery:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := transport.NewBackendHandler(f, params)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	r, err := transport.DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	delay.Store(int64(slow))

	ctx := context.Background()
	qs := fleetQueries(fl.dom, 24)
	withVerify := backend.WithVerify(fl.res.Public)
	for i, q := range qs {
		if _, err := r.Query(ctx, q, withVerify); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != transport.PromContentType {
		t.Errorf("Content-Type = %q, want %q", got, transport.PromContentType)
	}
	fams, err := transport.ParseProm(string(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}

	// The family set, pinned by the golden file.
	var lines []string
	for name, fam := range fams {
		lines = append(lines, name+" "+fam.Type)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading the golden family list (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exported metric families diverge from %s (run with -update if deliberate)\ngot:\n%swant:\n%s",
			golden, got, want)
	}

	// Consistency with the driver and the Snapshot: every exchange is
	// counted exactly once, and the hedge/shed counters on the wire are
	// the gate's own numbers.
	snap := f.Snapshot()
	sumFam := func(name string) (total float64) {
		for _, s := range fams[name].Samples {
			total += s.Value
		}
		return
	}
	if got := sumFam("aqv_front_requests_total"); got != float64(len(qs)) {
		t.Errorf("aqv_front_requests_total sums to %v, driver issued %d queries", got, len(qs))
	}
	if got, _ := fams["aqv_queries_total"].Value(); got != float64(len(qs)) {
		t.Errorf("aqv_queries_total = %v, driver issued %d queries", got, len(qs))
	}
	if snap.HedgeWins() == 0 {
		t.Errorf("no hedge wins recorded against a %v-slow replica", slow)
	}
	if got := sumFam("aqv_front_hedges_total"); got != float64(snap.Hedges()) {
		t.Errorf("aqv_front_hedges_total = %v, snapshot says %d", got, snap.Hedges())
	}
	if got := sumFam("aqv_front_hedges_won_total"); got != float64(snap.HedgeWins()) {
		t.Errorf("aqv_front_hedges_won_total = %v, snapshot says %d", got, snap.HedgeWins())
	}
	if got, _ := fams["aqv_front_shed_total"].Value(); got != float64(snap.Shed) || snap.Shed != 0 {
		t.Errorf("aqv_front_shed_total = %v, snapshot shed = %d, want both 0 under the 64-wide gate", got, snap.Shed)
	}
	if got, _ := fams["aqv_front_inflight_bound"].Value(); got != 64 {
		t.Errorf("aqv_front_inflight_bound = %v, want 64", got)
	}
	if got, _ := fams["aqv_epoch"].Value(); got != 1 {
		t.Errorf("aqv_epoch = %v, want 1", got)
	}
	if got := sumFam("aqv_front_request_seconds"); got == 0 {
		t.Errorf("the latency histogram exported no observations")
	}
}

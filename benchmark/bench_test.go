package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
)

// Small inputs keep the whole file well under three seconds: 200
// records, a 576-query (nine 64-query batches) mixed sequence.
const (
	testRecords = 200
	testQueries = 9 * batchSize
)

func testInputs(t *testing.T, seed int64) *inputs {
	t.Helper()
	in, err := genInputs(seed, testRecords, testQueries)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInputsDigestFollowsTheSeed(t *testing.T) {
	a, again, other := testInputs(t, 1), testInputs(t, 1), testInputs(t, 2)
	for _, wl := range workloads {
		if a.digest(wl.Name) != again.digest(wl.Name) {
			t.Errorf("%s: same seed, different inputs_sha256", wl.Name)
		}
		if a.digest(wl.Name) == other.digest(wl.Name) {
			t.Errorf("%s: different seeds, same inputs_sha256", wl.Name)
		}
	}
	for i, q := range a.mixed {
		if want := []string{"top-k", "range", "knn"}[i%3]; !strings.EqualFold(q.Kind.String(), want) {
			t.Fatalf("query %d is a %v, want %s", i, q.Kind, want)
		}
	}
}

func TestBeyond(t *testing.T) {
	// Ten samples beyond p99 need a thousand samples; p90 needs a hundred.
	if beyond(1000, 99) != 10 || beyond(100, 90) != 10 || beyond(99, 99) != 0 || beyond(0, 99) != 0 {
		t.Errorf("beyond: got %d, %d, %d, %d", beyond(1000, 99), beyond(100, 90), beyond(99, 99), beyond(0, 99))
	}
}

func TestEndToEndReduction(t *testing.T) {
	// Four ops, one failed, on a host running at half speed: rates and
	// costs count the three that succeeded, percentiles and bytes all
	// four, and every time is halved.
	ms := time.Millisecond
	ph := &phase{
		wall: 4 * time.Second, rawElapsed: 4 * time.Second, elapsed: 2 * time.Second, ops: 3, failed: 1,
		rawCPU: cpu{serve: 600, front: 400, client: 200}, cpu: cpu{serve: 300, front: 200, client: 100},
		rss: rss{serve: 40, front: 10, client: 99},
		samples: []sample{
			{latency: 8 * ms, bytes: 100, slowdown: 2}, {latency: 2 * ms, bytes: 100, slowdown: 2},
			{latency: 4 * ms, bytes: 100, slowdown: 2}, {latency: 18 * ms, bytes: 0, slowdown: 2, err: context.Canceled},
		},
	}
	r := &runner{}
	got := r.endToEnd(ph, []float64{1.5, 0.5, 1.0})
	want := map[string]float64{"ops_per_s": 1.5, "op_p50_ms": 2, "cpu_us_per_op": 200,
		"wire_bytes_per_op": 75, "rss_peak_mb": 50, "setup_s": 1.0}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %g, want %g", name, got[name], w)
		}
	}
	if len(fill(endToEnd, got)) != len(want) {
		t.Errorf("reduction and catalogue disagree: %v", got)
	}
	if ph.slowdown() != 2 || ph.rawOpsPerS() != 0.75 || ph.rawLatenciesMS()[0] != 8 {
		t.Errorf("as measured: slowdown %g, %g ops/s, first latency %g ms", ph.slowdown(), ph.rawOpsPerS(), ph.rawLatenciesMS()[0])
	}
	ph.open = true // an open loop's rate is its schedule's, whatever the host does
	if got := ph.opsPerS(); got != 0.75 {
		t.Errorf("open-loop rate = %g, want the measured 0.75", got)
	}
	r.def.inproc = true // republish: the server's memory is the benchmark's own
	if got := r.endToEnd(ph, nil)["rss_peak_mb"]; got != 99 {
		t.Errorf("in-process rss = %g, want 99", got)
	}
}

func TestWindowSlowdowns(t *testing.T) {
	s := time.Second
	ws := []window{{start: 0, end: s}, {start: s, end: 2 * s}, {start: 2 * s, end: 3 * s}, {start: 3 * s, end: 4 * s}}
	at := func(start time.Duration, slowdown float64) probeSample {
		return probeSample{start: start, end: start + 2*time.Millisecond, slowdown: slowdown}
	}
	// Window 0 has no probe and takes the next one's; window 1 takes the
	// mean of its three; window 2 has none and keeps window 1's; a probe
	// from the warm-up (before the first window) counts nowhere.
	slow, busy := windowSlowdowns([]probeSample{
		at(-s/2, 9), at(s+s/10, 1.5), at(s+s/5, 2), at(s+s/2, 1), at(3*s+s/2, 1.1),
	}, ws)
	if want := []float64{1.5, 1.5, 1.5, 1.1}; !slices.Equal(slow, want) {
		t.Errorf("slowdowns %v, want %v", slow, want)
	}
	if busy[0] != 0 || busy[1] != 6*time.Millisecond || busy[3] != 2*time.Millisecond {
		t.Errorf("probe time per window: %v", busy)
	}
	if slow, _ := windowSlowdowns(nil, ws); !slices.Equal(slow, []float64{1, 1, 1, 1}) {
		t.Errorf("without probes the times must stay as measured, got slowdowns %v", slow)
	}
	m := atNominal(map[string]float64{"core.verify_us": 90, "build.outsource_s": 3, "core.verify_hashes": 40, "cache.hit_share": 0.9}, 1.5)
	if m["core.verify_us"] != 60 || m["build.outsource_s"] != 2 || m["core.verify_hashes"] != 40 || m["cache.hit_share"] != 0.9 {
		t.Errorf("atNominal must divide the times and only them: %v", m)
	}
}

func TestHostProbeReadsAboutOne(t *testing.T) {
	p, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	// Not a timing assertion: only that the probe runs, reads a finite
	// positive slowdown and keeps its samples on the clock it is given.
	clk := &fakeClock{now: 5 * time.Second}
	p.sample(clk)
	if got := p.burst(3); !(got > 0) || math.IsInf(got, 0) {
		t.Errorf("burst read %g", got)
	}
	if len(p.samples) != 1 || p.samples[0].start != 5*time.Second || p.last != 5*time.Second || !(p.samples[0].slowdown > 0) {
		t.Errorf("samples: %+v, last %v", p.samples, p.last)
	}
}

func TestSelfTimeAndReconcile(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},    // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // clipped to the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18}, // a grandchild covers nothing of the op
	}
	self := selfTimes(spans)
	if self[1] != 50 { // 100 - [10,50) - [90,100)
		t.Errorf("op self time = %d, want 50", self[1])
	}
	if self[2] != 14 || self[5] != 6 {
		t.Errorf("child self = %d, leaf self = %d, want 14 and 6", self[2], self[5])
	}
	if got := reconcileShare(spans, "client.op"); math.Abs(got-0.8) > 1e-12 { // (20+30+30)/100
		t.Errorf("reconcile share = %g, want 0.8", got)
	}
	st := stageStats(spans)
	if st["client.op"].selfNS != 50 || st["a"].totalNS != 20 || st["a"].count != 1 {
		t.Errorf("stage stats: %+v %+v", st["client.op"], st["a"])
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var off *tracer
	off.end(off.begin(0, 1, "x")) // must not panic
	trs := newTracers(time.Now(), 2)
	op := trs[0].begin(0, 7, "client.op")
	in := trs[0].begin(op, 7, "inner")
	trs[0].end(in)
	trs[0].end(op)
	other := trs[1].begin(0, 8, "client.op")
	trs[1].end(other)
	all := mergeSpans(trs)
	if len(all) != 3 || op == other || all[1].Parent != op || all[1].Request != 7 {
		t.Fatalf("spans: %+v", all)
	}
	for _, s := range all {
		if s.End < s.Start {
			t.Errorf("span %q never closed", s.Name)
		}
	}
}

// fakeClock is a clock only the test moves: SleepUntil jumps forward,
// and each op advances it by its service time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestOpenLoopChargesLatenessToTheOp(t *testing.T) {
	// 10 ops/s offered, 150 ms of service, one client: every op after
	// the first starts late and the backlog grows by 50 ms per op.
	clk := &fakeClock{}
	got := load{clients: 1, rate: 10}.run(context.Background(), clk, 500*time.Millisecond,
		func(context.Context, int, int64) (int, int, error) {
			clk.now += 150 * time.Millisecond
			return 1, 1, nil
		})[0]
	if len(got) != 5 {
		t.Fatalf("%d ops ran, want the 5 due before 500ms", len(got))
	}
	for i, s := range got {
		late := time.Duration(i) * 50 * time.Millisecond
		if s.late != late || s.latency != late+150*time.Millisecond {
			t.Errorf("op %d: late %v latency %v, want %v and %v", i, s.late, s.latency, late, late+150*time.Millisecond)
		}
	}

	// The same service on a closed loop is never late: the next op is
	// due when the previous one completes.
	clk = &fakeClock{}
	for i, s := range (load{clients: 1}).run(context.Background(), clk, 500*time.Millisecond,
		func(context.Context, int, int64) (int, int, error) {
			clk.now += 150 * time.Millisecond
			return 1, 1, nil
		})[0] {
		if s.late != 0 || s.latency != 150*time.Millisecond {
			t.Errorf("closed op %d: late %v latency %v", i, s.late, s.latency)
		}
	}
}

func TestLoadProbesTheHostBetweenOps(t *testing.T) {
	p, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	// 60 ms ops on a closed loop for 600 ms: client 0 probes before an
	// op once probeEvery has passed since the last probe — here after
	// every op — and no op's latency includes a probe.
	clk := &fakeClock{}
	got := load{clients: 1, probe: p}.run(context.Background(), clk, 600*time.Millisecond,
		func(context.Context, int, int64) (int, int, error) {
			clk.now += 60 * time.Millisecond
			return 1, 1, nil
		})[0]
	if len(got) != 10 || len(p.samples) != 10 {
		t.Fatalf("%d ops and %d probes, want 10 and 10", len(got), len(p.samples))
	}
	for i, s := range p.samples {
		if want := time.Duration(i+1) * 60 * time.Millisecond; s.start != want {
			t.Errorf("probe %d at %v, want %v", i, s.start, want)
		}
	}
	for i, s := range got {
		if s.latency != 60*time.Millisecond {
			t.Errorf("op %d: latency %v includes more than the op", i, s.latency)
		}
	}
}

// contractFile renders BENCHMARK.json from the catalogue: go test
// -run TestCatalogueMatchesContract -update rewrites the file.
func contractFile() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []wl             `json:"workloads"`
		EndToEnd   []contractMetric `json:"end_to_end"`
		PerLayer   []layer          `json:"per_layer"`
	}{Command: []string{"sh", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

func TestCatalogueMatchesContract(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", contractFile(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if on, err := os.ReadFile("../BENCHMARK.json"); err != nil || !bytes.Equal(on, contractFile()) {
		t.Fatalf("BENCHMARK.json is not what the catalogue renders (err %v); run go test -run TestCatalogueMatchesContract -update", err)
	}
	var c contract
	if err := readJSON("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, the binary runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: contract %q, binary %q (or a why over 200 characters)", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, listed []contractMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: contract lists %d metrics, the binary emits %d", kind, len(listed), len(defs))
		}
		emitted := fill(defs, nil)
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s %d: contract %+v, binary %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %q: name, unit %q or direction %q outside the contract's alphabet", kind, m.Name, m.Unit, m.Better)
			}
			if _, ok := emitted[m.Name]; !ok {
				t.Errorf("%s %q is never emitted", kind, m.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// localRunner is a runner over an in-process tree: the client code
// paths of the benchmark with no child process behind them.
func localRunner(t *testing.T) *runner {
	t.Helper()
	in := testInputs(t, 3)
	signer, err := newSigner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: in.tbl, Template: in.tpl, Domain: in.dom, Signer: signer}, build.WithMode(core.MultiSignature))
	if err != nil {
		t.Fatal(err)
	}
	local, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := workloadByName("batch_mixed")
	return &runner{def: def, in: in, sys: &system{}, clients: []*client{{b: local, pub: res.Public}}}
}

func TestCorrectnessGate(t *testing.T) {
	measureOnce := func(r *runner, trs []*tracer) *report {
		ph, err := measure(context.Background(), r.sys, load{clients: 1}, 0, 150*time.Millisecond, r.op(trs))
		if err != nil {
			t.Fatal(err)
		}
		rep := &report{}
		r.account(rep, []*phase{ph})
		return rep
	}

	clean := localRunner(t)
	rep := measureOnce(clean, nil)
	if !rep.correct() || rep.Info.OracleChecked == 0 {
		t.Fatalf("clean run: %+v", rep.Info)
	}

	// The hand-split path verifies exactly as WithVerify does, and its
	// stage spans add up to its op spans.
	trs := newTracers(time.Now(), 1)
	rep = measureOnce(clean, trs)
	if rs := reconcileShare(mergeSpans(trs), "client.op"); !rep.correct() || rs < 0.9 || rs > 1.1 {
		t.Fatalf("traced run: reconcile %g, %+v", rs, rep.Info)
	}

	// One flipped byte in one received payload, ahead of the verify
	// step: that op counts as failed and the run reports failure.
	tampered := localRunner(t)
	calls := 0
	tampered.clients[0].tamper = func(raw []byte) {
		if calls++; calls == 3 {
			raw[len(raw)/2] ^= 0x01
		}
	}
	rep = measureOnce(tampered, nil)
	if rep.Info.Failed != 1 || rep.correct() || rep.Info.FailedShare == 0 || rep.Info.FirstError == "" {
		t.Fatalf("tampered run was not reported as failing: %+v", rep.Info)
	}

	// An answer that verifies but is not what the oracle computes (the
	// client kept the wrong records) fails the run too.
	wrong := localRunner(t)
	rep = &report{}
	ph, err := measure(context.Background(), wrong.sys, load{clients: 1}, 0, 50*time.Millisecond, wrong.op(nil))
	if err != nil {
		t.Fatal(err)
	}
	c := wrong.clients[0]
	c.checks[0].recs = c.checks[0].recs[1:]
	wrong.account(rep, []*phase{ph})
	if rep.Info.OracleMismatch != 1 || rep.correct() {
		t.Fatalf("oracle mismatch was not reported as failing: %+v", rep.Info)
	}
}

func TestProcParsers(t *testing.T) {
	us, err := parseStatCPU([]byte("42 (vq serve) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 10"))
	if err != nil || us != 3e6 { // (250+50) ticks at 100 Hz
		t.Errorf("stat CPU = %g, %v, want 3e6", us, err)
	}
	ps, err := parseProm(strings.NewReader("# HELP x y\naqv_queries_total 7\naqv_shard_queries_total{shard=\"0\"} 3\naqv_shard_queries_total{shard=\"1\"} 4\naqv_front_request_seconds_sum{shard=\"0\"} 0.25\n"))
	if err != nil || ps["aqv_queries_total"] != 7 || ps["aqv_shard_queries_total"] != 7 || ps["aqv_front_request_seconds_sum"] != 0.25 {
		t.Errorf("prom parse: %+v, %v", ps, err)
	}
}

func TestWorsening(t *testing.T) {
	if w := worsening("lower", 100, 112); math.Abs(w-0.12) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 112 worsens by %g, want 0.12", w)
	}
	if w := worsening("higher", 100, 88); math.Abs(w-0.12) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 88 worsens by %g, want 0.12", w)
	}
	if w := worsening("higher", 100, 110); w >= 0 {
		t.Errorf("an improvement reads as worsening %g", w)
	}
}

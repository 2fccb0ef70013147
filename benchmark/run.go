package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/core"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/stats"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // length of the timed windows, all together
	trace   bool
	binDir  string // the stack's binaries
	outDir  string // logs, artifacts and span files
	records int    // dataset size
	queries int    // length of the mixed sequence
}

// report is what one run of one workload produced.
type report struct {
	Workload string             `json:"workload"`
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Info     info               `json:"info"`
}

// info is the evidence beside the metrics: identity digests, sample
// counts behind the percentiles, and the failure accounting.
type info struct {
	InputsSHA256   string    `json:"inputs_sha256"`
	AnswersSHA256  string    `json:"answers_sha256"`
	TailPercentile float64   `json:"tail_percentile"`
	Samples        int       `json:"samples"`
	TailBeyond     int       `json:"tail_samples_beyond"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	FailedShare    float64   `json:"failed_share"`
	OracleChecked  int       `json:"oracle_checked"`
	OracleMismatch int       `json:"oracle_mismatched"`
	FirstError     string    `json:"first_error,omitempty"`
	SetupRunsS     []float64 `json:"setup_runs_s"`      // as measured
	SetupSlowdowns []float64 `json:"setup_slowdowns"`   // the host's slowdown around each
	HostSlowdown   float64   `json:"host_slowdown"`     // over the timed windows; 1 = a quiet host
	RawOpsPerS     float64   `json:"raw_ops_per_s"`     // the timing metrics as measured,
	RawOpP50MS     float64   `json:"raw_op_p50_ms"`     // before the division by the
	RawCPUUSPerOp  float64   `json:"raw_cpu_us_per_op"` // host's slowdown
	WindowOpsPerS  []float64 `json:"window_ops_per_s"`  // as measured
	WindowHost     []float64 `json:"window_slowdowns"`  // the host's, as the probes read it
	SpanFile       string    `json:"span_file,omitempty"`
}

// correct reports whether the run may be trusted: ops were attempted
// and none failed, was refused, failed verification or contradicted the
// oracle.
func (r *report) correct() bool { return r.Info.Attempted > 0 && r.Info.Failed == 0 }

// counters is a reading of everything the benchmark samples before and
// after the timed windows: the children's /metrics expositions and the
// benchmark process's own allocator and collector.
type counters struct {
	serves []promSample
	front  promSample
	mem    runtime.MemStats
	gcCPUS float64
}

func (s *system) counters(ctx context.Context) (counters, error) {
	var c counters
	for _, p := range s.serves {
		ps, err := scrape(ctx, p.url)
		if err != nil {
			return c, err
		}
		c.serves = append(c.serves, ps)
	}
	if s.front != nil {
		var err error
		if c.front, err = scrape(ctx, s.front.url); err != nil {
			return c, err
		}
	}
	runtime.ReadMemStats(&c.mem)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPUS = gc[0].Value.Float64()
	}
	return c, nil
}

// phase is one measured stretch of load: a warm-up, then timed windows.
type phase struct {
	samples       []sample // ops that completed inside the timed windows
	windows       []window
	open          bool // an open loop: the schedule, not the stack, sets its rate
	before, after counters
	rss           rss
	ops           int // samples that succeeded
	answers       int // verified answers among them
	failed        int
	firstErr      error

	// Totals over the timed windows, the host probes' own time and CPU
	// taken out: as measured, and at nominal host speed — each window's
	// share divided by the slowdown the probes read in it.
	wall                time.Duration // first to last window boundary
	rawElapsed, elapsed time.Duration
	rawCPU, cpu         cpu
}

// opsPerS is the rate of verified ops at nominal host speed. An open
// loop completes what its schedule offers whatever the host does, so
// its rate is taken over the plain wall time.
func (ph *phase) opsPerS() float64 {
	if ph.open {
		return ph.rawOpsPerS()
	}
	return ratio(float64(ph.ops), ph.elapsed.Seconds())
}

// rawOpsPerS is the rate of verified ops as measured.
func (ph *phase) rawOpsPerS() float64 {
	if ph.open {
		return ratio(float64(ph.ops), ph.wall.Seconds())
	}
	return ratio(float64(ph.ops), ph.rawElapsed.Seconds())
}

// slowdown is the mean divisor applied over the timed windows: measured
// time over time at nominal host speed.
func (ph *phase) slowdown() float64 {
	if ph.elapsed == 0 {
		return 1
	}
	return ph.rawElapsed.Seconds() / ph.elapsed.Seconds()
}

// hostSlowdown is the host's slowdown as the probes read it: the mean
// over the timed windows.
func (ph *phase) hostSlowdown() float64 {
	if len(ph.windows) == 0 {
		return 1
	}
	var sum float64
	for _, w := range ph.windows {
		sum += w.host
	}
	return sum / float64(len(ph.windows))
}

// openLoopFollows is how far the open loop's times follow the host: the
// exponent of the slowdown they are divided by. A closed loop always
// has an op executing, so its times are execution times and scale with
// the host (exponent 1; measured on batch_mixed, zipf_cached and
// republish). An open loop at a third of capacity spends about half an
// op's latency and CPU on going idle and being woken, which a busy
// sibling hyperthread does not slow: over two sets of ten runs in which
// the slowdown read 1.00 to 1.59, point_open's p50 and CPU per op spread
// 0.055-0.117 and 0.085-0.169 as measured, 0.021-0.049 and 0.048-0.085
// at exponent 1/2, 0.070-0.108 and 0.089-0.098 at 1.
const openLoopFollows = 0.5

// windowLen is the stretch one host slowdown is taken over: long enough
// for ten probes, short against the minutes an episode lasts. Every
// window boundary also checks that no child has died.
const windowLen = time.Second

// sleepUntil waits for the clock to reach t, or for ctx to end.
func sleepUntil(ctx context.Context, clk wallClock, t time.Duration) error {
	d := t - clk.Now()
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// measure drives op under load l for warm+timed and samples the stack
// at the timed windows' boundaries. The load runs in its own
// goroutines; this one only sleeps and reads counters.
func measure(ctx context.Context, s *system, l load, warm, timed time.Duration, op opFunc) (*phase, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	clk := wallClock{base: time.Now()}
	if l.probe != nil {
		l.probe.samples, l.probe.last = nil, 0 // the previous phase's, on its clock
	}
	var perClient [][]sample
	done := make(chan struct{})
	go func() {
		perClient = l.run(ctx, clk, warm+timed, op)
		close(done)
	}()

	ph := &phase{open: l.rate > 0}
	follows := 1.0
	if ph.open {
		follows = openLoopFollows
	}
	n := max(1, int((timed+windowLen/2)/windowLen))
	bounds := make([]time.Duration, n+1)
	cpus := make([]cpu, n+1)
	err := func() (err error) {
		for k := range bounds {
			if err = sleepUntil(ctx, clk, warm+timed*time.Duration(k)/time.Duration(n)); err != nil {
				return err
			}
			if k == 0 {
				if ph.before, err = s.counters(ctx); err != nil {
					return err
				}
			}
			if err = s.exited(); err != nil {
				return err
			}
			if cpus[k], err = s.cpuNow(); err != nil {
				return err
			}
			bounds[k] = clk.Now()
		}
		if ph.after, err = s.counters(ctx); err != nil {
			return err
		}
		ph.rss, err = s.rssNow()
		return err
	}()
	if err != nil {
		cancel()
	}
	<-done
	if err != nil {
		return nil, err
	}

	ph.wall = bounds[n] - bounds[0]
	ph.windows = make([]window, n)
	for k := range ph.windows {
		ph.windows[k] = window{start: bounds[k], end: bounds[k+1]}
	}
	var probes []probeSample
	if l.probe != nil {
		probes = l.probe.samples
	}
	slow, busy := windowSlowdowns(probes, ph.windows)
	for k := range ph.windows {
		w := &ph.windows[k]
		w.host = slow[k]
		w.slowdown = math.Pow(slow[k], follows)
		took := w.end - w.start - busy[k]
		used := cpus[k+1].sub(cpus[k])
		used.client -= float64(busy[k].Nanoseconds()) / 1e3 // a probe keeps one client thread busy
		ph.rawElapsed += took
		ph.elapsed += time.Duration(float64(took) / w.slowdown)
		ph.rawCPU = ph.rawCPU.add(used)
		ph.cpu = ph.cpu.add(used.scale(1 / w.slowdown))
	}
	for _, ss := range perClient {
		for _, sm := range ss {
			if sm.done < bounds[0] || sm.done >= bounds[n] {
				continue
			}
			k := sort.Search(n, func(k int) bool { return sm.done < bounds[k+1] })
			sm.slowdown = ph.windows[k].slowdown
			ph.samples = append(ph.samples, sm)
			if sm.err != nil {
				ph.failed++
				if ph.firstErr == nil {
					ph.firstErr = sm.err
				}
				continue
			}
			ph.ops++
			ph.answers += sm.answers
			ph.windows[k].ops++
		}
	}
	return ph, nil
}

// latenciesMS returns the phase's op latencies at nominal host speed:
// each divided by the slowdown of the window the op completed in.
func (ph *phase) latenciesMS() []float64 {
	ms := make([]float64, len(ph.samples))
	for i, sm := range ph.samples {
		ms[i] = float64(sm.latency.Nanoseconds()) / 1e6 / sm.slowdown
	}
	return ms
}

// rawLatenciesMS returns the phase's op latencies as measured.
func (ph *phase) rawLatenciesMS() []float64 {
	ms := make([]float64, len(ph.samples))
	for i, sm := range ph.samples {
		ms[i] = float64(sm.latency.Nanoseconds()) / 1e6
	}
	return ms
}

// runner holds one workload run's state.
type runner struct {
	cfg     config
	def     workloadDef
	in      *inputs
	sys     *system
	clients []*client
	probe   *prober
}

// staticProbes is the length of a probe burst on either side of a step
// that runs with the load stopped: about 40 ms.
const staticProbes = 20

// queries returns the queries of op i under the workload's shape.
func (r *runner) queries(i int64) []query.Query {
	switch {
	case r.def.batch:
		return r.in.batch(i)
	case r.def.zipf:
		d := r.in.draws[i%int64(len(r.in.draws))]
		return r.in.mixed[d : d+1]
	default:
		k := i % int64(len(r.in.mixed))
		return r.in.mixed[k : k+1]
	}
}

// op returns the workload's op: with tracers, the hand-split client
// path recording spans; without, backend.WithVerify.
func (r *runner) op(trs []*tracer) opFunc {
	return func(ctx context.Context, w int, i int64) (int, int, error) {
		var tr *tracer
		if trs != nil {
			tr = trs[w]
		}
		c := r.clients[w]
		if r.def.inproc {
			return r.sys.republish(ctx, r.in, c, tr, i)
		}
		qs := r.queries(i)
		req := uint64(i) + 1
		root := tr.begin(0, req, "client.op")
		answers, bytes, err := c.call(ctx, qs, tr, root, req)
		tr.end(root)
		if err != nil {
			return bytes, 0, err
		}
		c.keep(i, r.in.tbl, qs, answers)
		return bytes, len(answers), nil
	}
}

// boot stands the workload's deployment up once.
func (r *runner) boot(ctx context.Context) (*system, time.Duration, error) {
	if r.def.inproc {
		return bootInproc(ctx, r.cfg.outDir, r.in)
	}
	return bootStack(ctx, r.cfg.binDir, r.cfg.outDir, r.in, r.def.zipf, r.def.clients)
}

// answersDigest fetches the first digestCount queries of the mixed
// sequence once, single-threaded and unverified, and hashes the raw
// answer bytes: the identity of what the stack serves.
func (r *runner) answersDigest(ctx context.Context) (string, error) {
	h := sha256.New()
	c := r.clients[0]
	for lo := 0; lo < min(digestCount, len(r.in.mixed)); lo += batchSize {
		answers, _, err := c.exchange(ctx, r.in.mixed[lo:lo+batchSize])
		if err != nil {
			return "", fmt.Errorf("fetching the answers digest: %w", err)
		}
		for _, a := range answers {
			h.Write(a.Raw)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runWorkload runs one workload end to end: inputs, set-up, identity
// digests, the measured phases, the oracle check, tear-down.
func runWorkload(ctx context.Context, cfg config, def workloadDef) (_ *report, err error) {
	cfg.outDir = filepath.Join(cfg.outDir, def.Name)
	if err := os.RemoveAll(cfg.outDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	in, err := genInputs(cfg.seed, cfg.records, cfg.queries)
	if err != nil {
		return nil, err
	}
	probe, err := newProber()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	r := &runner{cfg: cfg, def: def, in: in, probe: probe}
	rep := &report{Workload: def.Name}
	rep.Info.InputsSHA256 = in.digest(def.Name)
	rep.Info.TailPercentile = def.tailP

	// Set-up runs three times (the traced pass, which does not report
	// it, once) with the host probed before and after each; the last
	// deployment stays up for the measurement.
	setups := 3
	if cfg.trace {
		setups = 1
	}
	var setupS []float64 // at nominal host speed
	for k := 0; k < setups; k++ {
		if r.sys != nil {
			r.sys.stop()
		}
		before := probe.burst(staticProbes)
		var took time.Duration
		if r.sys, took, err = r.boot(ctx); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		r.sys.slow = (before + probe.burst(staticProbes)) / 2
		rep.Info.SetupRunsS = append(rep.Info.SetupRunsS, took.Seconds())
		rep.Info.SetupSlowdowns = append(rep.Info.SetupSlowdowns, r.sys.slow)
		setupS = append(setupS, took.Seconds()/r.sys.slow)
	}
	defer r.sys.stop()
	for w := 0; w < def.clients; w++ {
		r.clients = append(r.clients, &client{b: r.sys.remote, pub: r.sys.pub})
	}
	if rep.Info.AnswersSHA256, err = r.answersDigest(ctx); err != nil {
		return nil, err
	}

	l := load{clients: def.clients, rate: def.rate, probe: probe}
	timed := time.Duration(cfg.seconds * float64(time.Second))
	warm := min(max(timed/10, 500*time.Millisecond), 5*time.Second)
	if cfg.trace {
		timed /= 2 // an untraced half for the counters, a traced half for the spans
	}
	plain, err := measure(ctx, r.sys, l, warm, timed, r.op(nil))
	if err != nil {
		return nil, err
	}
	phases := []*phase{plain}
	if cfg.trace {
		traced, vals, err := r.tracedPass(ctx, l, timed, plain, rep)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
		rep.PerLayer = fill(perLayer, vals)
	} else {
		rep.EndToEnd = fill(endToEnd, r.endToEnd(plain, setupS))
	}
	rep.Info.HostSlowdown = plain.hostSlowdown()
	rep.Info.RawOpsPerS = plain.rawOpsPerS()
	rep.Info.RawOpP50MS = stats.Percentile(plain.rawLatenciesMS(), 50)
	rep.Info.RawCPUUSPerOp = ratio(plain.rawCPU.total(), float64(plain.ops))

	r.account(rep, phases)
	return rep, nil
}

// account fills the report's failure accounting: ops attempted and
// failed over every measured phase, then the oracle's verdict on the
// answers held back for it. An oracle mismatch is a failed op.
func (r *runner) account(rep *report, phases []*phase) {
	lat := phases[0].latenciesMS()
	rep.Info.Samples = len(lat)
	for _, w := range phases[0].windows {
		rep.Info.WindowOpsPerS = append(rep.Info.WindowOpsPerS, w.opsPerS())
		rep.Info.WindowHost = append(rep.Info.WindowHost, w.host)
	}
	rep.Info.TailBeyond = beyond(len(lat), r.def.tailP)
	for _, ph := range phases {
		rep.Info.Attempted += len(ph.samples)
		rep.Info.Failed += ph.failed
		if ph.firstErr != nil && rep.Info.FirstError == "" {
			rep.Info.FirstError = ph.firstErr.Error()
		}
	}
	for _, c := range r.clients {
		bad, first := oracleMismatches(r.in, c.checks)
		rep.Info.OracleChecked += len(c.checks)
		rep.Info.OracleMismatch += bad
		if first != nil && rep.Info.FirstError == "" {
			rep.Info.FirstError = first.Error()
		}
	}
	rep.Info.Failed += rep.Info.OracleMismatch
	rep.Info.FailedShare = ratio(float64(rep.Info.Failed), float64(rep.Info.Attempted))
}

// endToEnd reduces an untraced phase and the set-up times to the
// end-to-end metrics; the times among them are at nominal host speed.
func (r *runner) endToEnd(ph *phase, setups []float64) map[string]float64 {
	lat := ph.latenciesMS()
	var bytes float64
	for _, sm := range ph.samples {
		bytes += float64(sm.bytes)
	}
	return map[string]float64{
		"ops_per_s":         ph.opsPerS(),
		"op_p50_ms":         stats.Percentile(lat, 50),
		"cpu_us_per_op":     ratio(ph.cpu.total(), float64(ph.ops)),
		"wire_bytes_per_op": ratio(bytes, float64(len(ph.samples))),
		"rss_peak_mb":       ph.rss.serving(r.def.inproc),
		"setup_s":           stats.Median(setups),
	}
}

// timeUnits are the units of the per-layer metrics that are times.
var timeUnits = map[string]bool{"us": true, "ms": true, "s": true}

// atNominal divides every time in m by slow, the host's slowdown while
// m was taken; counts, sizes and shares stay.
func atNominal(m map[string]float64, slow float64) map[string]float64 {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; ok && timeUnits[d.Unit] {
			m[d.Name] /= slow
		}
	}
	return m
}

// tracedPass produces every per-layer metric: the counters of the
// untraced phase already run, a traced phase of the same length, and —
// with the load stopped and the host probed on either side — the hop
// probes, the in-process replay and the owner path. Every time is
// divided by the host's slowdown while it was taken.
func (r *runner) tracedPass(ctx context.Context, l load, timed time.Duration, plain *phase, rep *report) (*phase, map[string]float64, error) {
	m := r.counterMetrics(plain, l)

	trs := newTracers(time.Now(), l.clients)
	traced, err := measure(ctx, r.sys, l, 500*time.Millisecond, timed, r.op(trs))
	if err != nil {
		return nil, nil, err
	}
	spans := mergeSpans(trs)
	rep.Info.SpanFile = filepath.Join(r.cfg.outDir, "spans.jsonl")
	if err := writeSpans(rep.Info.SpanFile, spans); err != nil {
		return nil, nil, err
	}
	m["trace.overhead_share"] = 1 - ratio(traced.opsPerS(), plain.opsPerS())
	m["trace.reconcile_share"] = reconcileShare(spans, "client.op")
	if rs := m["trace.reconcile_share"]; traced.failed == 0 && (rs < 0.9 || rs > 1.1) {
		return nil, nil, fmt.Errorf("stage spans cover %.3f of the op spans; they must reconcile within [0.9, 1.1]", rs)
	}
	merge(m, atNominal(r.spanMetrics(spans, traced), traced.slowdown()))

	before := r.probe.burst(staticProbes)
	still := map[string]float64{}
	viaFront, direct, err := probeHops(ctx, r.sys, r.in)
	if err != nil {
		return nil, nil, err
	}
	if r.sys.front != nil {
		still["vqfront.hop_us"] = viaFront - direct
	}
	if still["sig.verify_us"], err = sigVerifyUS(); err != nil {
		return nil, nil, err
	}
	if err := r.servedHalf(ctx, still); err != nil {
		return nil, nil, err
	}
	still["transport.hop_us"] = direct - (still["shard.route_us"] + still["core.process_us"] + still["wire.encode_us"])
	merge(m, atNominal(still, (before+r.probe.burst(staticProbes))/2))
	merge(m, atNominal(r.sys.spans, r.sys.slow))

	if perServed := ratio(plain.cpu.serve, m["vqserve.queries"]); perServed > 0 {
		m["vqserve.unattributed_share"] = 1 - (m["core.process_us"]+m["wire.encode_us"])/perServed
	}
	if perAnswer := m["client.cpu_us_per_answer"]; perAnswer > 0 {
		m["client.unattributed_share"] = 1 - (m["wire.decode_us"]+m["core.verify_us"])/perAnswer
	}
	return traced, m, nil
}

// merge copies from's metrics into into.
func merge(into, from map[string]float64) {
	for k, v := range from {
		into[k] = v
	}
}

// servedHalf adds the metrics taken in the benchmark process from the
// deployment's own artifact: the replay of the server and client
// halves and, for the process stack, the owner path behind its set-up.
func (r *runner) servedHalf(ctx context.Context, m map[string]float64) error {
	qs := r.in.mixed[:min(digestCount, len(r.in.mixed))]
	plan, trees, pub := shard.Plan{}, []*core.Tree(nil), r.sys.pub
	if o := r.sys.owner; o != nil {
		plan, trees, pub = o.cur.Plan, []*core.Tree{o.cur.Tree}, o.cur.Public
	} else {
		start := time.Now()
		a, err := artifact.Open(r.sys.artDir)
		if err != nil {
			return err
		}
		defer a.Close()
		m["artifact.open_ms"] = msSince(start)
		plan, trees = a.Result.Plan, a.Result.Set.Trees
		own, err := ownerPath(ctx, r.in, filepath.Join(r.cfg.outDir, "artifact-owner"))
		if err != nil {
			return err
		}
		merge(m, own)
	}
	served, err := replay(plan, trees, pub, qs)
	if err != nil {
		return err
	}
	merge(m, served)
	return nil
}

// counterMetrics derives the process and endpoint counter metrics from
// an untraced phase.
func (r *runner) counterMetrics(ph *phase, l load) map[string]float64 {
	answers := float64(ph.answers)
	m := map[string]float64{
		"vqserve.cpu_us_per_answer": ratio(ph.cpu.serve, answers),
		"vqfront.cpu_us_per_answer": ratio(ph.cpu.front, answers),
		"client.cpu_us_per_answer":  ratio(ph.cpu.client, answers),
		"vqserve.rss_peak_mb":       ph.rss.serve,
		"vqfront.rss_peak_mb":       ph.rss.front,
		"client.rss_peak_mb":        ph.rss.client,

		"client.allocs_per_answer":      ratio(float64(ph.after.mem.Mallocs-ph.before.mem.Mallocs), answers),
		"client.alloc_bytes_per_answer": ratio(float64(ph.after.mem.TotalAlloc-ph.before.mem.TotalAlloc), answers),
		"client.gc_cpu_share":           ratio((ph.after.gcCPUS-ph.before.gcCPUS)*1e6, ph.rawCPU.client),
		"client.op_tail_ms":             stats.Percentile(ph.latenciesMS(), r.def.tailP),

		"host.slowdown":            ph.hostSlowdown(),
		"client.raw_ops_per_s":     ph.rawOpsPerS(),
		"client.raw_op_p50_ms":     stats.Percentile(ph.rawLatenciesMS(), 50),
		"client.raw_cpu_us_per_op": ratio(ph.rawCPU.total(), float64(ph.ops)),
	}
	m["client.offered_per_s"] = ph.opsPerS()
	if l.rate > 0 {
		m["client.offered_per_s"] = l.rate
		late := make([]float64, len(ph.samples))
		for i, sm := range ph.samples {
			late[i] = float64(sm.late.Nanoseconds()) / 1e6 / sm.slowdown
		}
		m["client.sched_late_p99_ms"] = stats.Percentile(late, 99)
	}

	var perShard []float64
	for i := range ph.before.serves {
		b, a := ph.before.serves[i], ph.after.serves[i]
		q := delta(b, a, "aqv_queries_total")
		perShard = append(perShard, q)
		m["vqserve.queries"] += q
		m["vqserve.errors"] += delta(b, a, "aqv_query_errors_total")
		m["vqserve.hashes_per_answer"] += delta(b, a, "aqv_hashes_total")
		m["vqserve.nodes_per_answer"] += delta(b, a, "aqv_nodes_visited_total")
	}
	m["vqserve.hashes_per_answer"] = ratio(m["vqserve.hashes_per_answer"], m["vqserve.queries"])
	m["vqserve.nodes_per_answer"] = ratio(m["vqserve.nodes_per_answer"], m["vqserve.queries"])
	if len(perShard) > 0 {
		sort.Float64s(perShard)
		m["vqserve.shard_skew"] = ratio(perShard[len(perShard)-1], perShard[0])
	}

	b, a := ph.before.front, ph.after.front
	m["vqfront.request_mean_us"] = 1e6 * ratio(delta(b, a, "aqv_front_request_seconds_sum"), delta(b, a, "aqv_front_request_seconds_count")) / ph.slowdown()
	m["front.hedges"] = delta(b, a, "aqv_front_hedges_total")
	m["front.shed"] = delta(b, a, "aqv_front_shed_total")
	m["front.retries"] = delta(b, a, "aqv_front_retries_total")
	hits, misses := delta(b, a, "aqv_cache_hits_total"), delta(b, a, "aqv_cache_misses_total")
	m["cache.hit_share"] = ratio(hits, hits+misses)
	m["cache.misses"] = misses
	m["cache.collapses"] = delta(b, a, "aqv_cache_collapses_total")
	m["cache.evictions"] = delta(b, a, "aqv_cache_evictions_total")
	return m
}

// spanMetrics derives the client-side stage metrics from the traced
// phase's spans, as measured: means per answer for the library stages,
// the exchange median, the op span's self time, and republish's cycle
// stages.
func (r *runner) spanMetrics(spans []span, traced *phase) map[string]float64 {
	m := map[string]float64{}
	st := stageStats(spans)
	us := func(name string, per float64) float64 {
		s := st[name]
		if s == nil {
			return 0
		}
		return ratio(float64(s.totalNS)/1e3, per)
	}
	answers := float64(traced.answers + traced.failed) // spans of failed ops are rare enough not to matter
	m["wire.decode_us"] = us("wire.decode", answers)
	m["core.verify_us"] = us("core.verify", answers)
	if ex := st["transport.exchange"]; ex != nil {
		m["transport.exchange_p50_us"] = stats.Percentile(ex.durations, 50) / 1e3
	}
	if op := st["client.op"]; op != nil {
		m["client.self_us"] = float64(op.selfNS) / 1e3 / float64(op.count)
	}
	for name, metric := range map[string]string{
		"build.apply": "build.apply_ms", "artifact.save": "artifact.save_ms", "artifact.open": "artifact.open_ms",
		"transport.refresh": "transport.refresh_ms", "republish.first_answer": "republish.first_answer_ms",
	} {
		if s := st[name]; s != nil {
			m[metric] = us(name, float64(s.count)) / 1e3
		}
	}
	if s := st["server.swap"]; s != nil {
		m["server.swap_us"] = us("server.swap", float64(s.count))
	}
	return m
}

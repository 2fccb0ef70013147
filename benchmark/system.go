package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
)

// system is one stood-up deployment with a dialled verifying client:
// the vqfront -> vqserve process stack of the read workloads, or the
// in-process server of republish.
type system struct {
	serves []*proc // one vqserve per shard; nil in-process
	front  *proc   // nil in-process
	owner  *owner  // in-process only

	remote *transport.Remote
	pub    core.PublicParams
	artDir string             // the artifact the stack serves from
	spans  map[string]float64 // set-up spans by per-layer metric name, as measured
	slow   float64            // the host's slowdown around the set-up
	stops  []func()
}

// stop tears the system down in reverse order of construction: every
// child is killed and reaped, the listener closed.
func (s *system) stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// exited reports the first child that died, with its log tail.
func (s *system) exited() error {
	for _, p := range s.procs() {
		if err := p.exited(); err != nil {
			return err
		}
	}
	return nil
}

func (s *system) procs() []*proc {
	if s.front == nil {
		return nil
	}
	return append(append([]*proc(nil), s.serves...), s.front)
}

// cpu is a CPU-time snapshot of the stack by layer, in microseconds.
type cpu struct{ serve, front, client float64 }

func (c cpu) total() float64 { return c.serve + c.front + c.client }

func (c cpu) sub(o cpu) cpu { return cpu{c.serve - o.serve, c.front - o.front, c.client - o.client} }

func (c cpu) add(o cpu) cpu { return cpu{c.serve + o.serve, c.front + o.front, c.client + o.client} }

func (c cpu) scale(f float64) cpu { return cpu{c.serve * f, c.front * f, c.client * f} }

// cpuNow reads every process's user+system time.
func (s *system) cpuNow() (cpu, error) {
	c := cpu{client: selfCPUUS()}
	for _, p := range s.serves {
		us, err := p.cpuUS()
		if err != nil {
			return c, err
		}
		c.serve += us
	}
	if s.front != nil {
		us, err := s.front.cpuUS()
		if err != nil {
			return c, err
		}
		c.front = us
	}
	return c, nil
}

// rss is the peak resident memory by layer, in megabytes.
type rss struct{ serve, front, client float64 }

// serving is the memory the deployment holds to serve: the child
// processes, or the benchmark process when the server lives in it.
func (r rss) serving(inproc bool) float64 {
	if inproc {
		return r.client
	}
	return r.serve + r.front
}

func (s *system) rssNow() (rss, error) {
	var r rss
	var err error
	if r.client, err = peakRSSMB("self"); err != nil {
		return r, err
	}
	for _, p := range s.procs() {
		mb, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return r, err
		}
		if p == s.front {
			r.front = mb
		} else {
			r.serve += mb
		}
	}
	return r, nil
}

// clientHTTP returns an HTTP client capped at conns connections per
// host, so the load generator never holds more than nproc connections.
func clientHTTP(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// firstAnswer is the last step of every set-up: one verified answer
// through the freshly dialled client.
func (s *system) firstAnswer(ctx context.Context, in *inputs) error {
	ans, err := s.remote.Query(ctx, in.mixed[0], backend.WithVerify(s.pub))
	if err != nil {
		return fmt.Errorf("first verified answer: %w", err)
	}
	if len(ans.Records) == 0 {
		return fmt.Errorf("first verified answer is empty")
	}
	return nil
}

// msSince is the elapsed time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// bootStack stands up the process stack from nothing: the owner
// outsources and saves the artifact (vqgen), one vqserve per shard
// loads it, vqfront composes them, the client dials and verifies one
// answer. The returned duration is that whole path.
func bootStack(ctx context.Context, binDir, outDir string, in *inputs, cacheOn bool, conns int) (_ *system, setup time.Duration, err error) {
	s := &system{artDir: filepath.Join(outDir, "artifact"), spans: map[string]float64{}}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if err := os.RemoveAll(s.artDir); err != nil {
		return nil, 0, err
	}
	start := time.Now()

	// The owner's tool regenerates the dataset from the same generator
	// configuration genInputs used, because vqgen has no other way to
	// be given one.
	gen := exec.CommandContext(ctx, filepath.Join(binDir, "vqgen"),
		"-kind", "lines", "-n", strconv.Itoa(in.tbl.Len()), "-seed", strconv.Itoa(tableSeed),
		"-outsource", "-artifact", s.artDir, "-mode", "multi",
		"-keyseed", strconv.Itoa(keySeed), "-shards", strconv.Itoa(numShards))
	if out, err := gen.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("vqgen: %w\n%s", err, out)
	} else if err := os.WriteFile(filepath.Join(outDir, "vqgen.log"), out, 0o644); err != nil {
		return nil, 0, err
	}

	urls := make([]string, numShards)
	for i := range urls {
		p, err := spawnServer(ctx, fmt.Sprintf("vqserve-%d", i), filepath.Join(binDir, "vqserve"), outDir,
			func(addr string) []string {
				return []string{"-addr", addr, "-load", s.artDir, "-shard", strconv.Itoa(i)}
			})
		if err != nil {
			return nil, 0, err
		}
		s.serves = append(s.serves, p)
		s.stops = append(s.stops, p.stop)
		s.spans["vqserve.boot_ms"] += p.bootMS / numShards
		urls[i] = p.url
	}
	s.front, err = spawnServer(ctx, "vqfront", filepath.Join(binDir, "vqfront"), outDir,
		func(addr string) []string {
			args := []string{"-addr", addr, "-backends", strings.Join(urls, ",")}
			if cacheOn {
				args = append(args, "-cache")
			}
			return args
		})
	if err != nil {
		return nil, 0, err
	}
	s.stops = append(s.stops, s.front.stop)
	s.spans["vqfront.boot_ms"] = s.front.bootMS

	if err := s.dial(ctx, s.front.url, conns); err != nil {
		return nil, 0, err
	}
	if err := s.firstAnswer(ctx, in); err != nil {
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// dial points the verifying client at base.
func (s *system) dial(ctx context.Context, base string, conns int) error {
	start := time.Now()
	hc := clientHTTP(conns)
	r, err := transport.DialRemote(base, hc)
	if err != nil {
		return err
	}
	s.stops = append(s.stops, hc.CloseIdleConnections)
	pub, ok := r.Client().Public()
	if !ok {
		return fmt.Errorf("%s serves no IFMH bundle", base)
	}
	s.remote, s.pub = r, pub
	s.spans["transport.dial_ms"] = msSince(start)
	return nil
}

// owner is the data owner of the republish workload: the current build
// result (signer retained, so build.Apply accepts it), the server it
// publishes into and the opened artifact that server is answering from.
type owner struct {
	cur    *build.Result
	srv    *server.Server
	opened *artifact.Artifact
	dirs   [2]string // saves alternate, so a mapped blob is never overwritten
	cycle  int
	muts   *mutator
}

// newSigner derives the benchmark's deterministic ed25519 key.
func newSigner() (sig.Signer, error) {
	return sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(keySeed)})
}

// publish saves the owner's current result, opens the saved artifact
// and returns the backend serving from it, timing the two halves.
func (o *owner) publish(tr *tracer, parent, req uint64) (server.Backend, *artifact.Artifact, error) {
	dir := o.dirs[o.cycle%2]
	sp := tr.begin(parent, req, "artifact.save")
	_, err := artifact.Save(dir, o.cur)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(parent, req, "artifact.open")
	a, err := artifact.Open(dir)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	b, err := a.Backend()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return b, a, nil
}

// bootInproc stands up the republish deployment from nothing: a
// one-signature tree outsourced in the benchmark process, saved, opened
// and served by server.Server behind transport.NewIFMHHandler on a
// loopback listener, then dialled and queried like the process stack.
func bootInproc(ctx context.Context, outDir string, in *inputs) (_ *system, setup time.Duration, err error) {
	s := &system{spans: map[string]float64{}}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	start := time.Now()
	signer, err := newSigner()
	if err != nil {
		return nil, 0, err
	}
	o := &owner{muts: newMutator(in), dirs: [2]string{filepath.Join(outDir, "artifact-a"), filepath.Join(outDir, "artifact-b")}}
	spec := build.Spec{Table: in.tbl, Template: in.tpl, Domain: in.dom, Signer: signer}
	// WithShuffle selects the canonical-order build, the one build.Apply
	// updates incrementally.
	if o.cur, err = build.Outsource(ctx, spec, build.WithMode(core.OneSignature), build.WithShuffle(tableSeed)); err != nil {
		return nil, 0, err
	}
	s.spans["build.outsource_s"] = time.Since(start).Seconds()
	s.spans["build.subdomains"] = float64(o.cur.Tree.NumSubdomains())
	s.spans["build.signatures"] = float64(o.cur.Tree.SignatureCount())
	b, a, err := o.publish(nil, 0, 0)
	if err != nil {
		return nil, 0, err
	}
	o.opened = a
	if s.spans["artifact.bytes"], err = dirBytes(o.dirs[0]); err != nil {
		return nil, 0, err
	}
	s.stops = append(s.stops, func() { o.opened.Close() })
	if o.srv, err = server.New(b); err != nil {
		return nil, 0, err
	}
	h, err := transport.NewIFMHHandler(o.srv, o.cur.Public)
	if err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(l) // returns ErrServerClosed on stop
		close(served)
	}()
	s.stops = append(s.stops, func() { hs.Close(); <-served })
	s.owner = o
	if err := s.dial(ctx, "http://"+l.Addr().String(), 1); err != nil {
		return nil, 0, err
	}
	if err := s.firstAnswer(ctx, in); err != nil {
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

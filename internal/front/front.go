// Package front is the production serving layer between clients and
// the K shard processes of a multi-process deployment: replica sets,
// admission control and the front's own observability.
//
// A vqfront composed with DialFront dials N replicas per shard and
// serves the same endpoints a single vqserve serves; everything in this
// package is invisible to the verification protocol. Per shard, a
// ReplicaSet routes each exchange by power-of-two-choices over live
// in-flight counts and runs it on the calling goroutine, fails over
// once on a wholesale transport failure (safe by construction: queries
// are read-only and every answer is verified client-side), and ejects a
// replica after consecutive failures until the background /params
// prober sees it healthy again. The Frontend composes the sets behind a
// backend.Fanout, adds the bounded in-flight admission gate (shed
// requests surface as ErrOverload; the HTTP handler maps them to 429),
// and exports retry, ejection, shed, per-replica epoch-lag and
// latency-histogram gauges through the /metrics exposition.
//
// Replication interacts with the epoch plane the way a rolling swap
// needs: replicas of one shard may legitimately serve different epochs
// mid-rollout. Answers relay with their epoch stamps intact — the end
// client holds the pin and sees the usual *backend.EpochError with
// correct shard attribution when a newer replica answers — while the
// front surfaces each replica's lag behind the fleet's newest epoch as
// a gauge until the fleet converges.
package front

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/transport"
	"aqverify/internal/wire"
)

// ErrOverload reports a request shed by the admission gate instead of
// queued: the front (or a shard server) was at its in-flight bound. It
// re-exports the protocol-level sentinel — transport maps HTTP 429 to
// it in both directions — so errors.Is(err, front.ErrOverload) holds
// end to end, from the gate through a remote client. A shed request was
// never admitted; retrying elsewhere or after backoff is always safe.
var ErrOverload = wire.ErrOverload

// Options tunes a Frontend. The zero value is serviceable: admission
// unbounded, probes every 2s.
type Options struct {
	// MaxInFlight bounds concurrently admitted exchanges across the
	// front; 0 means unbounded (no gate).
	MaxInFlight int
	// FailAfter is the consecutive-failure count that ejects a replica
	// (default 3).
	FailAfter int
	// ProbeEvery is the health-probe period (default 2s); negative
	// disables the prober.
	ProbeEvery time.Duration
	// ProbeTimeout bounds one /params probe (default 2s).
	ProbeTimeout time.Duration
	// Logf receives ejection/re-admission notices; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// HTTPClient returns an http.Client tuned for a front's long-lived
// fan-out connections: bounded dial and response-header waits so a dead
// replica fails fast instead of hanging an exchange, keep-alives and a
// per-host idle pool sized for steady fan-out traffic, and no overall
// request timeout — a large batch may legitimately take long, and P2C
// already steers load away from a slow replica.
func HTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   32,
		},
	}
}

// Frontend is the replica-aware serving layer: a backend.Fanout whose
// children are K ReplicaSets — so every query method, the plan and the
// epochs are the Fanout's own, and each sub-batch gets its set's
// routing and failover — plus the admission gate and the front's
// gauges. Queries route ungated: the gate is the HTTP boundary's
// concern, enforced by the transport handler through Admit
// (programmatic callers that want gating call Admit themselves).
// WriteProm is what the handler's /metrics route picks up.
type Frontend struct {
	*backend.Fanout
	sets []*ReplicaSet
	gate *gate // nil when MaxInFlight is 0
	opt  Options

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// DialFront dials every replica of every shard — groups[i] lists shard
// group i's replica base URLs — through transport.DialGroups, which
// enforces that the fleet serves one logical database (one bundle, one
// artifact, one sub-box per group; epochs may differ — a rolling swap
// looks like that — and surface as lag gauges, not errors), recovers
// the shard plan and reorders groups in place into shard order. The
// replica sets are then composed into a Frontend.
//
// The returned Params is the merged trust bundle the front republishes,
// exactly as DialFanout merges it.
func DialFront(groups [][]string, hc *http.Client, opt Options) (*Frontend, transport.Params, error) { //lint:ignore ctxthread the prober is process-lifetime background work owned by the Frontend; Close stops it
	opt = opt.withDefaults()
	plan, remotes, params, err := transport.DialGroups(groups, hc)
	if err != nil {
		return nil, transport.Params{}, fmt.Errorf("front: %w", err)
	}
	kids := make([]backend.Backend, len(remotes))
	sets := make([]*ReplicaSet, len(remotes))
	for i, rems := range remotes {
		reps := make([]*replica, len(rems))
		for j, rem := range rems {
			reps[j] = &replica{rem: rem, url: groups[i][j]}
		}
		sets[i] = newReplicaSet(i, reps, opt)
		kids[i] = sets[i]
	}
	fan, err := backend.NewFanout(plan, kids)
	if err != nil {
		return nil, transport.Params{}, err
	}
	f := &Frontend{Fanout: fan, sets: sets, opt: opt}
	if opt.MaxInFlight > 0 {
		f.gate = newGate(opt.MaxInFlight)
	}
	if opt.ProbeEvery > 0 {
		f.stop = make(chan struct{})
		f.done = make(chan struct{})
		go f.probeLoop()
	}
	params.Epoch = fan.Epoch()
	return f, params, nil
}

// Close stops the background prober. The Frontend keeps serving; Close
// exists so tests and clean shutdowns do not leak the goroutine.
func (f *Frontend) Close() error {
	f.stopOnce.Do(func() {
		if f.stop != nil {
			close(f.stop)
			<-f.done
		}
	})
	return nil
}

// probeLoop re-reads every replica's /params on a timer: a successful
// probe clears the failure count and re-admits an ejected replica; a
// failed or timed-out probe counts toward ejection exactly like a
// failed request. Refresh also refuses an identity change (a different
// backend, verifier key or template at the same URL), which ejects the
// imposter.
func (f *Frontend) probeLoop() {
	defer close(f.done)
	t := time.NewTicker(f.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.probeAll()
		}
	}
}

func (f *Frontend) probeAll() {
	for _, s := range f.sets {
		for _, r := range s.reps {
			//lint:ignore ctxthread probes run on the Frontend's own lifetime, not a request's; the stop channel ends the loop
			ctx, cancel := context.WithTimeout(context.Background(), f.opt.ProbeTimeout)
			_, err := r.rem.Client().Refresh(ctx)
			cancel()
			if err != nil {
				err = fmt.Errorf("front: probe %s: %w", r.url, err)
			}
			s.noteProbe(r, err)
		}
	}
}

// Replicas returns the total replica count across shards.
func (f *Frontend) Replicas() int {
	n := 0
	for _, s := range f.sets {
		n += len(s.reps)
	}
	return n
}

// Admit implements the admission surface the transport handler gates
// the HTTP routes with. Without a bound it admits everything.
func (f *Frontend) Admit() (func(), error) {
	if f.gate == nil {
		return func() {}, nil
	}
	return f.gate.Admit()
}

// Snapshot returns the front's live gauge state.
func (f *Frontend) Snapshot() Snapshot {
	snap := Snapshot{}
	if f.gate != nil {
		snap.Shed = f.gate.shed.Load()
		snap.InFlight = f.gate.inflight.Load()
		snap.InFlightBound = f.gate.max
	}
	fleet := f.Epoch()
	for _, s := range f.sets {
		snap.Shards = append(snap.Shards, s.stat(fleet))
	}
	return snap
}

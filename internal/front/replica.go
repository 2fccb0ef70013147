package front

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/transport"
)

// replica is one dialed shard server plus its live health state.
type replica struct {
	rem *transport.Remote
	url string

	inflight   atomic.Int64
	fails      atomic.Int32 // consecutive failures (requests and probes)
	ejected    atomic.Bool
	probeFails atomic.Int64
}

// ReplicaSet serves one shard through N replicas: power-of-two-choices
// routing by in-flight count, hedged batches after the p99-tracked
// deadline, one-shot failover on a wholesale transport failure, and
// consecutive-failure ejection shared with the background prober. It
// implements backend.Backend, so a Fanout composes K sets exactly as it
// composes K single remotes — replication is invisible above this
// layer. Answers are not gated here: admission control is the
// Frontend's boundary concern.
type ReplicaSet struct {
	shard int
	name  string
	reps  []*replica
	opt   Options

	requests   atomic.Int64
	hedges     atomic.Int64
	hedgeWins  atomic.Int64
	suppressed atomic.Int64
	retries    atomic.Int64
	ejections  atomic.Int64
	readmits   atomic.Int64

	lat  *digest
	hist *histogram
}

func newReplicaSet(shard int, reps []*replica, opt Options) *ReplicaSet {
	return &ReplicaSet{
		shard: shard,
		name:  reps[0].rem.Name(),
		reps:  reps,
		opt:   opt,
		lat:   newDigest(),
		hist:  newHistogram(),
	}
}

// Name implements backend.Backend.
func (s *ReplicaSet) Name() string { return s.name }

// Epoch returns the newest publication epoch any replica has been seen
// serving — the owner publishes monotonically, so during a rolling swap
// the maximum is the authoritative epoch and the others are lagging.
func (s *ReplicaSet) Epoch() uint64 {
	var newest uint64
	for _, r := range s.reps {
		newest = max(newest, r.rem.Epoch())
	}
	return newest
}

// pick chooses a replica by power-of-two-choices over in-flight counts,
// preferring non-ejected replicas and excluding exclude (the hedge and
// failover paths need a *different* replica; nil means none). When
// every candidate is ejected the set stays available — least-loaded
// among the ejected beats refusing outright, and the prober re-admits
// as soon as one recovers.
func (s *ReplicaSet) pick(exclude *replica) *replica {
	cand := make([]*replica, 0, len(s.reps))
	for _, r := range s.reps {
		if r != exclude && !r.ejected.Load() {
			cand = append(cand, r)
		}
	}
	if len(cand) == 0 {
		for _, r := range s.reps {
			if r != exclude {
				cand = append(cand, r)
			}
		}
	}
	switch len(cand) {
	case 0:
		return nil
	case 1:
		return cand[0]
	}
	i := rand.IntN(len(cand))
	j := rand.IntN(len(cand) - 1)
	if j >= i {
		j++
	}
	a, b := cand[i], cand[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// hedgeAfterMax caps the hedge deadline, so a polluted digest cannot
// push hedging past usefulness.
const hedgeAfterMax = time.Second

// hedgeDelay is the deadline after which a second replica is tried: the
// digest's p99, clamped to [HedgeAfterMin, hedgeAfterMax] so a cold
// digest hedges eagerly rather than never.
func (s *ReplicaSet) hedgeDelay() time.Duration {
	return min(max(s.lat.Percentile(99), s.opt.HedgeAfterMin), hedgeAfterMax)
}

// canHedge reports whether an exchange on this set can hedge at all: it
// takes a budget and a second replica. When it cannot, QueryBatch arms
// no deadline — there is no decision for one to trigger.
func (s *ReplicaSet) canHedge() bool {
	return s.opt.HedgeFraction > 0 && len(s.reps) > 1
}

// allowHedge enforces the hedge budget: issued hedges may not exceed
// HedgeFraction of requests, so hedging cannot double the load on a
// degraded fleet.
func (s *ReplicaSet) allowHedge() bool {
	return float64(s.hedges.Load()+1) <= s.opt.HedgeFraction*float64(s.requests.Load())
}

// wholesale classifies a batch outcome: a transport-level failure fails
// every item with the same *transport.RemoteError, and only that kind
// of failure makes the replica suspect and the batch worth re-running
// elsewhere. Per-item outcomes (refusals, epoch mismatches, failed
// verification) traveled inside a healthy exchange and are the answer.
func wholesale(errs []error) error {
	if len(errs) == 0 || errs[0] == nil {
		return nil
	}
	var re *transport.RemoteError
	if errors.As(errs[0], &re) {
		return errs[0]
	}
	return nil
}

// fail debits one failure and ejects on the FailAfter'th consecutive
// one.
func (s *ReplicaSet) fail(r *replica, err error) {
	n := r.fails.Add(1)
	if int(n) >= s.opt.FailAfter && r.ejected.CompareAndSwap(false, true) {
		s.ejections.Add(1)
		s.opt.Logf("front: shard %d: ejecting replica %s after %d consecutive failures: %v", s.shard, r.url, n, err)
	}
}

// noteFailure is fail for request outcomes, skipping the kinds that are
// not the replica's fault: an overload shed (the replica is protecting
// itself, not broken) and a context cancellation (the caller or the
// hedge race gave up, the replica may be fine).
func (s *ReplicaSet) noteFailure(r *replica, err error) {
	if errors.Is(err, ErrOverload) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.fail(r, err)
}

// noteSuccess clears the consecutive-failure count and re-admits.
func (s *ReplicaSet) noteSuccess(r *replica) {
	r.fails.Store(0)
	if r.ejected.CompareAndSwap(true, false) {
		s.readmits.Add(1)
		s.opt.Logf("front: shard %d: re-admitting replica %s", s.shard, r.url)
	}
}

// noteProbe records one health-probe outcome. Unlike noteFailure, every
// probe error counts — including a probe timeout, which is exactly how
// a hung replica is caught.
func (s *ReplicaSet) noteProbe(r *replica, err error) {
	if err == nil {
		s.noteSuccess(r)
		return
	}
	r.probeFails.Add(1)
	s.fail(r, err)
}

// launchResult is one replica exchange's outcome.
type launchResult struct {
	rep     *replica
	hedged  bool
	answers []backend.Answer
	errs    []error
	ctr     metrics.Counter
}

// launch runs the batch on one replica with a private counter (the
// caller's counter is single-goroutine by contract; only the winning
// launch's counts are merged, on the calling goroutine). The channel is
// buffered for every launch the call can make, so a losing goroutine
// never blocks and unwinds as soon as its exchange ends.
func (s *ReplicaSet) launch(ctx context.Context, r *replica, hedged bool, qs []query.Query, opts []backend.Option, ch chan<- *launchResult) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	res := &launchResult{rep: r, hedged: hedged}
	res.answers, res.errs = r.rem.QueryBatch(ctx, qs, backend.ReplaceCounter(opts, &res.ctr)...)
	ch <- res
}

// Query implements backend.Backend as a batch of one, so single queries
// get the same routing, hedging and failover as batches.
func (s *ReplicaSet) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, s, q, opts...)
}

// QueryBatch implements backend.Backend: route by P2C, hedge onto a
// second replica after the p99 deadline (budget permitting) and take
// the first outcome, canceling the loser; on a wholesale transport
// failure debit the replica and fail over once. Per-item errors inside
// a healthy exchange are final — the replicas serve one database, and
// an answer a replica refused is refused.
func (s *ReplicaSet) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	if len(qs) == 0 {
		return []backend.Answer{}, []error{}
	}
	s.requests.Add(1)
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // unwinds the losing launch, if one is still running

	ch := make(chan *launchResult, 3) // primary + hedge + failover
	primary := s.pick(nil)
	outstanding := 1
	go s.launch(ctx, primary, false, qs, opts, ch)

	var res *launchResult
	if !s.canHedge() {
		res = <-ch
	} else {
		timer := time.NewTimer(s.hedgeDelay())
		select {
		case res = <-ch:
		case <-timer.C:
			if s.allowHedge() {
				s.hedges.Add(1)
				outstanding++
				go s.launch(ctx, s.pick(primary), true, qs, opts, ch)
			} else {
				s.suppressed.Add(1)
			}
			res = <-ch
		}
		timer.Stop()
	}
	outstanding--

	if err := wholesale(res.errs); err != nil {
		s.noteFailure(res.rep, err)
		if outstanding == 0 && ctx.Err() == nil {
			if alt := s.pick(res.rep); alt != nil {
				s.retries.Add(1)
				outstanding++
				go s.launch(ctx, alt, false, qs, opts, ch)
			}
		}
		if outstanding > 0 {
			// A second launch is racing (hedge or failover); prefer its
			// outcome if it is healthy.
			if res2 := <-ch; wholesale(res2.errs) == nil {
				res = res2
			} else {
				s.noteFailure(res2.rep, wholesale(res2.errs))
			}
			outstanding--
		}
	}
	if wholesale(res.errs) == nil {
		s.noteSuccess(res.rep)
		d := time.Since(start)
		if res.hedged {
			s.hedgeWins.Add(1)
		} else {
			// Only primary completions feed the deadline digest. A
			// hedge-won latency is truncated at the deadline itself;
			// recording it would feed the deadline back into its own
			// estimate, ratcheting it up past the very tail hedging is
			// meant to cut (each rescue ≈ deadline + a fast exchange, so
			// the p99 — and with it the deadline — would grow every
			// rescue until it exceeded the slow replica's latency and
			// hedging silently shut off).
			s.lat.Record(d)
		}
		s.hist.Observe(d)
	}
	backend.Resolve(opts).Charge(res.ctr)
	return res.answers, res.errs
}

// stat snapshots the set's counters; fleetEpoch (the newest epoch any
// replica of any shard serves) anchors the per-replica lag gauges.
func (s *ReplicaSet) stat(fleetEpoch uint64) ShardStat {
	st := ShardStat{
		Requests:         s.requests.Load(),
		Hedges:           s.hedges.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		HedgesSuppressed: s.suppressed.Load(),
		Retries:          s.retries.Load(),
		Ejections:        s.ejections.Load(),
		Readmissions:     s.readmits.Load(),
	}
	for _, r := range s.reps {
		e := r.rem.Epoch()
		var lag uint64
		if fleetEpoch > e {
			lag = fleetEpoch - e
		}
		st.Replicas = append(st.Replicas, ReplicaStat{
			URL:        r.url,
			Up:         !r.ejected.Load(),
			InFlight:   r.inflight.Load(),
			Epoch:      e,
			EpochLag:   lag,
			ProbeFails: r.probeFails.Load(),
		})
	}
	return st
}

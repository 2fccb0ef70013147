package front

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"aqverify/internal/backend"
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
// routing by in-flight count, one-shot failover on a wholesale
// transport failure, and consecutive-failure ejection shared with the
// background prober. It implements backend.Backend, so a Fanout
// composes K sets exactly as it composes K single remotes — replication
// is invisible above this layer. Answers are not gated here: admission
// control is the Frontend's boundary concern.
type ReplicaSet struct {
	shard int
	name  string
	reps  []*replica
	opt   Options

	requests  atomic.Int64
	retries   atomic.Int64
	ejections atomic.Int64
	readmits  atomic.Int64

	hist *histogram
}

func newReplicaSet(shard int, reps []*replica, opt Options) *ReplicaSet {
	return &ReplicaSet{
		shard: shard,
		name:  reps[0].rem.Name(),
		reps:  reps,
		opt:   opt,
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
// preferring non-ejected replicas and excluding exclude (the failover
// path needs a *different* replica; nil means none). When every
// candidate is ejected the set stays available — least-loaded among the
// ejected beats refusing outright, and the prober re-admits as soon as
// one recovers.
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
// itself, not broken) and a context cancellation (the caller gave up,
// the replica may be fine).
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

// exchange runs the batch on one replica, counted in its in-flight
// load for the duration.
func (s *ReplicaSet) exchange(ctx context.Context, r *replica, qs []query.Query, opts []backend.Option) ([]backend.Answer, []error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	return r.rem.QueryBatch(ctx, qs, opts...)
}

// Query implements backend.Backend as a batch of one, so single queries
// get the same routing and failover as batches.
func (s *ReplicaSet) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, s, q, opts...)
}

// QueryBatch implements backend.Backend: route by P2C and run one
// exchange on the calling goroutine; on a wholesale transport failure
// debit the replica and fail over once to a different one. A wholesale
// failure charges the caller's counter nothing, so the options pass
// straight through. Per-item errors inside a healthy exchange are
// final — the replicas serve one database, and an answer a replica
// refused is refused.
func (s *ReplicaSet) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	if len(qs) == 0 {
		return []backend.Answer{}, []error{}
	}
	s.requests.Add(1)
	start := time.Now()
	r := s.pick(nil)
	answers, errs := s.exchange(ctx, r, qs, opts)
	if err := wholesale(errs); err != nil {
		s.noteFailure(r, err)
		if r = s.pick(r); r == nil || ctx.Err() != nil {
			return answers, errs
		}
		s.retries.Add(1)
		answers, errs = s.exchange(ctx, r, qs, opts)
		if err := wholesale(errs); err != nil {
			s.noteFailure(r, err)
			return answers, errs
		}
	}
	s.noteSuccess(r)
	s.hist.Observe(time.Since(start))
	return answers, errs
}

// stat snapshots the set's counters; fleetEpoch (the newest epoch any
// replica of any shard serves) anchors the per-replica lag gauges.
func (s *ReplicaSet) stat(fleetEpoch uint64) ShardStat {
	st := ShardStat{
		Requests:     s.requests.Load(),
		Retries:      s.retries.Load(),
		Ejections:    s.ejections.Load(),
		Readmissions: s.readmits.Load(),
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

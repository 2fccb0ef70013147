package transport

import (
	"context"
	"fmt"
	"net/http"

	"aqverify/internal/backend"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// Remote lifts an HTTPClient into the unified query plane: a vqserve
// process reached over HTTP becomes a backend.Backend, interchangeable
// with an in-process tree — and composable, K single-shard Remotes
// behind one backend.Fanout being the multi-process shard deployment.
//
// Answers are returned raw by default, exactly as they traveled;
// WithVerify(pub) checks each one against the owner's published
// parameters first, like every other backend. QueryBatch spends one
// HTTP exchange for the whole batch.
type Remote struct {
	c *HTTPClient
	// relay disables pin enforcement: a front-end's child remote
	// forwards every answer with its epoch stamp intact — the end
	// client, not the relay, holds the pin — and tracks the newest
	// epoch seen so the composed /params stays current across the
	// shard's swaps. Set by DialGroups at composition time, before the
	// remote serves traffic.
	relay bool
}

// NewRemote wraps a dialed client.
func NewRemote(c *HTTPClient) (*Remote, error) {
	if c == nil {
		return nil, fmt.Errorf("transport: remote backend needs a dialed client")
	}
	return &Remote{c: c}, nil
}

// DialRemote dials the base URL and returns it as a backend.
func DialRemote(base string, hc *http.Client) (*Remote, error) {
	c, err := Dial(base, hc)
	if err != nil {
		return nil, err
	}
	return NewRemote(c)
}

// Client returns the underlying HTTP client.
func (r *Remote) Client() *HTTPClient { return r.c }

// RemoteError wraps a transport-level failure — network error, non-200
// status, unparseable frame — with the base URL of the server that
// failed, so a composed deployment (fanout, replica set) can name the
// replica at fault and classify the failure (errors.As) for failover.
// Per-item outcomes that traveled inside a healthy exchange (refusals,
// epoch mismatches, failed verification) are never wrapped: the server
// answered, it is not at fault at the transport level.
type RemoteError struct {
	URL string
	Err error
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: backend %s: %v", e.URL, e.Err)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// wrapErr attributes a transport-level failure to this remote's URL.
func (r *Remote) wrapErr(err error) error {
	if err == nil {
		return nil
	}
	return &RemoteError{URL: r.c.base, Err: err}
}

// Name implements backend.Backend, reporting the server's advertised
// backend name.
func (r *Remote) Name() string { return r.c.Backend() }

// Epoch returns the publication epoch the client pinned at dial (or
// last Refresh).
func (r *Remote) Epoch() uint64 { return r.c.Epoch() }

// epochErr checks one answered wire item against the pinned epoch: any
// disagreement is the typed staleness signal — the server swapped a
// mutated bundle in since the pin, or a lagging replica answered. The
// caller surfaces it instead of the answer; HTTPClient.Refresh re-pins
// and the query can be retried.
func (r *Remote) epochErr(it wire.BatchAnswer) error {
	pin := r.c.Epoch()
	if it.Epoch == pin {
		return nil
	}
	if r.relay {
		r.c.observeEpoch(it.Epoch)
		return nil
	}
	return &backend.EpochError{Want: pin, Got: it.Epoch, Shard: it.Shard}
}

// Query implements backend.Backend as a batch of one: it travels POST
// /query/batch, so a single answer is held to the pin and attributed to
// its shard exactly as a batch item is.
func (r *Remote) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, r, q, opts...)
}

// QueryBatch implements backend.Backend: the whole batch travels in one
// POST /query/batch exchange, per-item failures travel inside the frame,
// and verification (when requested) fans out locally. A transport-level
// failure — network error, non-200 status, unparseable frame — fails
// every item.
func (r *Remote) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	if len(qs) == 0 {
		return []backend.Answer{}, []error{}
	}
	answers := make([]backend.Answer, len(qs))
	errs := make([]error, len(qs))
	items, err := r.c.rawBatch(ctx, qs)
	if err != nil {
		err = r.wrapErr(err)
		for i := range qs {
			answers[i], errs[i] = backend.Answer{Shard: wire.ShardNone}, err
		}
		return answers, errs
	}
	for i, it := range items {
		answers[i], errs[i] = r.outcome(i, it)
	}
	backend.Resolve(opts).FinishBatch(ctx, qs, answers, errs)
	return answers, errs
}

// outcome turns one batch item into the caller's result, unfinished: a
// refusal, a typed epoch mismatch, or the raw answer bytes. Errors keep
// the item's shard and epoch attribution and carry no bytes, per the
// Answer contract.
func (r *Remote) outcome(i int, it wire.BatchAnswer) (backend.Answer, error) {
	ans := backend.Answer{Shard: it.Shard, Epoch: it.Epoch}
	if it.Status == wire.StatusRefused {
		return ans, fmt.Errorf("transport: server refused query %d: %s", i, it.Err)
	}
	if err := r.epochErr(it); err != nil {
		return ans, err
	}
	ans.Raw = it.Answer
	return ans, nil
}

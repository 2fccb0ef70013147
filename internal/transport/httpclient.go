package transport

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// maxBatchAnswerBytes bounds a batched response body — the only body the
// client buffers: a frame of many answers is large by design, and a
// silent truncation would fail the whole batch with an opaque parse
// error.
const maxBatchAnswerBytes = 512 << 20

// HTTPClient is one dialed vqserve session: the owner's trust bundle as
// fetched from /params (with the verification parameters derived from
// it), the pinned publication epoch, and the raw wire exchanges. It
// returns bytes, never records — the HTTP connection is untrusted by
// construction, and Remote, the backend.Backend over this client, is
// where answers are verified (backend.WithVerify).
type HTTPClient struct {
	base   string
	hc     *http.Client
	params Params
	pub    verify.PublicParams // Epoch is stamped by Public() from the live pin
	// epoch pins the publication epoch the client verified /params
	// against, compared to the epoch word of every batched answer: a
	// mismatch is a typed staleness signal (the server swapped a mutated
	// bundle in, or a replica lags), not a verification failure.
	// Refresh re-pins it; it is never 0.
	epoch atomic.Uint64
}

// Dial fetches /params from the base URL and prepares the session.
func Dial(base string, hc *http.Client) (*HTTPClient, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	base = strings.TrimRight(base, "/")
	req, err := http.NewRequest(http.MethodGet, base+"/params", nil)
	if err != nil {
		return nil, fmt.Errorf("transport: build request: %w", err)
	}
	p, err := fetchParams(hc, req)
	if err != nil {
		return nil, err
	}
	var mode verify.Mode
	switch p.Backend {
	case "ifmh-one":
		mode = verify.OneSignature
	case "ifmh-multi":
		mode = verify.MultiSignature
	default:
		return nil, fmt.Errorf("transport: unknown backend %q", p.Backend)
	}
	vb, err := base64.StdEncoding.DecodeString(p.Verifier)
	if err != nil {
		return nil, fmt.Errorf("transport: verifier encoding: %w", err)
	}
	key, err := verify.UnmarshalVerifier(vb)
	if err != nil {
		return nil, err
	}
	// One memo for the session, shared by every Public copy: Refresh
	// pins the key, and a signature accepted under it is valid at every
	// epoch — staleness is the epoch word's job.
	out := &HTTPClient{base: base, hc: hc, params: p, pub: verify.PublicParams{
		Verifier: verify.Memo(key), Template: fromTplJSON(p.Template), Mode: mode,
	}}
	out.epoch.Store(p.Epoch)
	return out, nil
}

// Backend returns the server's advertised backend name.
func (c *HTTPClient) Backend() string { return c.params.Backend }

// Shards returns the server's advertised domain-shard count (0 = single
// tree). Verification is identical either way.
func (c *HTTPClient) Shards() int { return c.params.Shards }

// Params returns the server's advertised trust bundle as fetched at
// dial time, stamped with the live epoch pin — the one field Refresh
// moves.
func (c *HTTPClient) Params() Params {
	p := c.params
	p.Epoch = c.Epoch()
	return p
}

// Epoch returns the publication epoch the client has pinned — from the
// dial-time /params, or the last successful Refresh.
func (c *HTTPClient) Epoch() uint64 { return c.epoch.Load() }

// observeEpoch advances the pin to e if e is newer — the relay path
// (a front-end's child remote) tracks the newest epoch its shard has
// been seen serving instead of enforcing the dial-time pin.
func (c *HTTPClient) observeEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// fetchParams runs one GET /params exchange and parses the bundle. Every
// bundle a server of this module publishes carries an epoch >= 1; one
// without is refused by name rather than pinned as "no check".
func fetchParams(hc *http.Client, req *http.Request) (Params, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return Params{}, fmt.Errorf("transport: fetch params: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Params{}, fmt.Errorf("transport: params endpoint returned %s", resp.Status)
	}
	var p Params
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&p); err != nil {
		return Params{}, fmt.Errorf("transport: parse params: %w", err)
	}
	if p.Epoch == 0 {
		return Params{}, fmt.Errorf("transport: params carry no publication epoch; every served bundle has epoch >= 1")
	}
	return p, nil
}

// Refresh re-reads /params and re-pins the serving epoch — the recovery
// step after a backend.EpochError: the owner applied a mutation batch
// and the server swapped the new bundle in, so the client refreshes its
// pin and re-queries. Only the epoch moves; the trust anchors (backend
// name, verifier key, template — CheckSameBundle, the same identity a
// fleet is composed under) are fixed at dial, so a server that changes
// them mid-flight is refused rather than silently re-trusted.
func (c *HTTPClient) Refresh(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/params", nil)
	if err != nil {
		return 0, fmt.Errorf("transport: build request: %w", err)
	}
	p, err := fetchParams(c.hc, req)
	if err != nil {
		return 0, err
	}
	if err := CheckSameBundle(c.base, p, "its own dial-time bundle", c.params); err != nil {
		return 0, fmt.Errorf("transport: server changed its identity; re-dial to re-establish trust: %w", err)
	}
	c.epoch.Store(p.Epoch)
	return p.Epoch, nil
}

// Artifact returns the hex content hash of the on-disk artifact the
// server serves from, or "" when it built in memory without saving one.
func (c *HTTPClient) Artifact() string { return c.params.Artifact }

// Provenance returns how the server's bundle came to be — "built" or
// "loaded" — or "" on servers that predate the artifact plane.
func (c *HTTPClient) Provenance() string { return c.params.Provenance }

// Domain returns the server's advertised serving domain, when it
// advertises one — a shard server of a multi-process deployment
// advertises its sub-box.
func (c *HTTPClient) Domain() (geometry.Box, bool) { return c.params.Domain.Box() }

// Public returns the verification parameters derived from the
// advertised bundle. Their Verifier is the session's verify.Memo: an owner
// signature accepted once costs no second public-key operation; every
// other check still runs per answer. Their Epoch is the live pin, so a
// refreshed session publishes the epoch it verifies against. The bool
// is always true — every dialed session is IFMH — and survives only
// because benchmark/system.go, which this PR may not edit, reads it.
func (c *HTTPClient) Public() (verify.PublicParams, bool) {
	pub := c.pub
	pub.Epoch = c.Epoch()
	return pub, true
}

// rawBatch posts a query batch in one exchange and returns the decoded
// per-item outcomes, unverified. The returned error covers
// transport-level failures only.
func (c *HTTPClient) rawBatch(ctx context.Context, qs []query.Query) ([]wire.BatchAnswer, error) {
	body, err := c.post(ctx, "/query/batch", wire.EncodeQueryBatch(qs), maxBatchAnswerBytes)
	if err != nil {
		return nil, err
	}
	items, err := wire.DecodeAnswerBatch(body)
	if err != nil {
		return nil, fmt.Errorf("transport: parse batch answer: %w", err)
	}
	if len(items) != len(qs) {
		return nil, fmt.Errorf("transport: batch answered %d of %d queries", len(items), len(qs))
	}
	return items, nil
}

// post sends one octet-stream request and buffers up to limit response
// bytes once the status is 200; any other status is an error surfacing
// the server's message.
func (c *HTTPClient) post(ctx context.Context, path string, reqBody []byte, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(reqBody))
	if err != nil {
		return nil, fmt.Errorf("transport: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: post %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if resp.StatusCode == http.StatusTooManyRequests {
			// The host's admission gate shed the request before any work
			// started; surface the typed overload signal so callers can
			// retry elsewhere instead of treating it as a server fault.
			return nil, fmt.Errorf("transport: %s: %w", strings.TrimSpace(string(msg)), wire.ErrOverload)
		}
		return nil, fmt.Errorf("transport: server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	body, err := readBody(resp.Body, resp.ContentLength, limit)
	if errors.Is(err, errBodyTooBig) {
		return nil, fmt.Errorf("transport: answer exceeds %d bytes", limit)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: read answer: %w", err)
	}
	return body, nil
}

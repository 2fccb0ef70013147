// Package transport puts the outsourcing protocol on the network: an
// http.Handler exposing a query backend's endpoints plus the data
// owner's published parameters, and Remote, the backend.Backend over
// one dialed server — answers travel raw and verify client-side under
// backend.WithVerify. The data plane is the deterministic binary wire
// codec; the control plane (/params, /stats) is JSON.
//
// Endpoints:
//
//	POST /query/batch   body: wire-encoded query batch  -> wire-encoded answer batch
//	GET  /params        -> JSON trust bundle (scheme, verifier key, template, mode, domain)
//	GET  /stats         -> JSON cumulative server metrics
//	GET  /metrics       -> the same counters as a Prometheus text exposition
//
// The handler serves any backend.Backend — the in-process server, one
// shard's tree of a multi-process deployment, a backend.Fanout composing
// K remote shard servers (cmd/vqfront), any of them behind the cache
// tier — and is the one place served traffic is counted: the query
// route records each item's outcome and the exchange's cost into the
// handler's tally (tally.go states the rules), so /stats and /metrics
// read the same on every host and no backend keeps a serving count.
// There is one query exchange: a single query is a batch of one
// (backend.One), so every answer travels with its shard and epoch, and
// POST /query and POST /query/stream, both retired, are 404s. The batch
// endpoint carries many queries in one length-prefixed frame (see
// wire.EncodeQueryBatch) and answers them concurrently on the server;
// each item of the response is either that query's answer bytes or its
// error string, so one bad query never fails the batch, and a client
// that disconnects cancels the in-flight work through the request
// context. Against a domain-sharded server, batch items are grouped per
// shard before dispatch and each response item carries the answering
// shard's id (docs/WIRE.md specifies the byte layouts); /params
// advertises the shard count and the serving domain, and /stats the
// per-shard tallies. Routes are registered with Go 1.22 method
// patterns, so a wrong-method request is a 405, not a 404.
package transport

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"

	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// maxBatchBytes bounds a batched request body (many queries per frame).
const maxBatchBytes = 1 << 22

// Params is the JSON trust bundle the data owner publishes. Backend
// names the signing mode the answers verify under.
type Params struct {
	Backend  string  `json:"backend"`  // "ifmh-one" or "ifmh-multi"
	Verifier string  `json:"verifier"` // base64 of verify.MarshalVerifier
	Template TplJSON `json:"template"`
	// Shards advertises the server's domain-shard count (0 or absent =
	// single tree). Informational: verification is shard-transparent.
	Shards int `json:"shards,omitempty"`
	// Domain advertises the serving domain: the owner's full query
	// domain, or — when this server hosts one shard of a multi-process
	// deployment — that shard's sub-box. A routing front-end (vqfront)
	// reconstructs the shard plan from its backends' domains.
	Domain *BoxJSON `json:"domain,omitempty"`
	// Epoch advertises the serving publication epoch: 1 for a fresh
	// outsourcing, bumped by every mutation batch the owner applies and
	// the server swaps in. Always >= 1: Dial and Refresh refuse a bundle
	// without one. Clients pin it at dial and compare it against the
	// epoch word every answer carries in its batch item,
	// surfacing a mismatch as a typed staleness error rather than a
	// verification failure.
	Epoch uint64 `json:"epoch,omitempty"`
	// Artifact advertises the hex content hash of the on-disk artifact
	// this server serves from — the manifest's sealed self-hash, one
	// value for a whole K-shard set. Absent on in-process servers over a
	// fresh build that was never saved. DialFanout compares nonempty
	// hashes across a multi-process deployment and refuses a mix of
	// artifacts as an *ArtifactMismatchError.
	Artifact string `json:"artifact,omitempty"`
	// Provenance says how the serving bundle came to be: "built" (an
	// in-process server over a fresh build.Outsource) or "loaded"
	// (reconstructed from an artifact directory — every vqserve). Informational — verification
	// is provenance-transparent.
	Provenance string `json:"provenance,omitempty"`
}

// TplJSON is the JSON form of a utility-function template.
type TplJSON struct {
	Name      string `json:"name"`
	CoefAttrs []int  `json:"coefAttrs"`
	BiasAttr  int    `json:"biasAttr"`
}

// BoxJSON is the JSON form of a bounded domain box.
type BoxJSON struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

func toTplJSON(t funcs.Template) TplJSON {
	return TplJSON{Name: t.Name, CoefAttrs: t.CoefAttrs, BiasAttr: t.BiasAttr}
}

func fromTplJSON(t TplJSON) funcs.Template {
	return funcs.Template{Name: t.Name, CoefAttrs: t.CoefAttrs, BiasAttr: t.BiasAttr}
}

// ToBoxJSON converts a domain box to its JSON form.
func ToBoxJSON(b geometry.Box) *BoxJSON {
	return &BoxJSON{Lo: append([]float64(nil), b.Lo...), Hi: append([]float64(nil), b.Hi...)}
}

// Box converts back; nil yields (zero, false).
func (b *BoxJSON) Box() (geometry.Box, bool) {
	if b == nil {
		return geometry.Box{}, false
	}
	box, err := geometry.NewBox(b.Lo, b.Hi)
	if err != nil {
		return geometry.Box{}, false
	}
	return box, true
}

// admitter is the admission surface a served backend may expose — the
// front plane's bounded in-flight gate. The handler admits at the HTTP
// boundary, before any request frame is decoded, so an overloaded host
// answers the query route with a cheap 429 instead of queuing the work.
// release is deferred to the end of the exchange, so one admission
// covers the whole response.
type admitter interface {
	Admit() (release func(), err error)
}

// promSource lets a served backend append its own metric families to
// the handler's /metrics exposition (the front plane's retry, replica
// and shed gauges).
type promSource interface {
	WriteProm(p *Prom)
}

// cacheSource is the cache tier's counter surface; /stats and /metrics
// report it when the serving stack has one.
type cacheSource interface {
	CacheStats() cache.Stats
}

// Handler serves one query backend over HTTP and keeps the one tally of
// what it served: the query route records each item's outcome and the
// exchange's cost, whatever the backend is.
type Handler struct {
	b       backend.Backend
	tally   *tally
	admit   admitter    // non-nil when the backend gates admission
	promSrc promSource  // non-nil when the backend adds /metrics families
	cache   cacheSource // non-nil when the serving stack has a cache tier
	params  Params
	mux     *http.ServeMux
}

// NewIFMHHandler serves an IFMH-backed backend — typically the
// server.Server hosting one — under the bundle IFMHParams assembles.
func NewIFMHHandler(b backend.Backend, pub verify.PublicParams) (*Handler, error) {
	p, err := IFMHParams(b, pub)
	if err != nil {
		return nil, err
	}
	return NewBackendHandler(b, p)
}

// IFMHParams assembles the trust bundle an IFMH-backed server publishes
// — the building block behind NewIFMHHandler for deployments that add
// fields or decorate the backend before constructing the handler
// (vqserve stamps the artifact content hash and provenance on it, and
// with -cache serves cache.Wrap(srv) under srv's bundle): the owner's
// verification anchors plus what the backend itself advertises, read
// down its Inner chain (name, shard count, serving domain).
func IFMHParams(b backend.Backend, pub verify.PublicParams) (Params, error) {
	vb, err := verify.MarshalVerifier(pub.Verifier)
	if err != nil {
		return Params{}, err
	}
	p := Params{
		Backend:  b.Name(),
		Verifier: base64.StdEncoding.EncodeToString(vb),
		Template: toTplJSON(pub.Template),
		Shards:   len(backend.Epochs(b)),
	}
	if d, ok := backend.Find[interface{ Domain() geometry.Box }](b); ok {
		p.Domain = ToBoxJSON(d.Domain())
	}
	return p, nil
}

// NewBackendHandler serves any backend.Backend under the published
// parameter bundle — the generic constructor behind NewIFMHHandler and
// the vqfront front-end. The handler tallies what it serves itself,
// attributing each answer to its reported shard.
func NewBackendHandler(b backend.Backend, p Params) (*Handler, error) {
	if p.Backend == "" {
		p.Backend = b.Name()
	}
	h := &Handler{b: b, params: p, mux: http.NewServeMux()}
	h.tally = newTally(backend.Epoch(b), backend.Epochs(b))
	// Optional surfaces may sit behind decorators (vqfront -cache wraps
	// the front plane in the cache tier), so walk the Inner chain: the
	// admission gate and the front gauges must keep working however the
	// serving stack is composed.
	h.admit, _ = backend.Find[admitter](b)
	h.promSrc, _ = backend.Find[promSource](b)
	h.cache, _ = backend.Find[cacheSource](b)
	h.mux.HandleFunc("POST /query/batch", h.admitted(h.handleBatch))
	h.mux.HandleFunc("GET /params", h.handleParams)
	h.mux.HandleFunc("GET /stats", h.handleStats)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	return h, nil
}

// admitted puts the backend's admission gate, when it has one, in front
// of the query route: a refusal is a 429 before any of the request is
// read, and one admission covers the whole exchange.
func (h *Handler) admitted(route http.HandlerFunc) http.HandlerFunc {
	if h.admit == nil {
		return route
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := h.admit.Admit()
		if err != nil {
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		defer release()
		route(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// maxBodyReserve caps what a declared length, a hint the peer controls, reserves.
const maxBodyReserve = 1 << 20

var errBodyTooBig = errors.New("body exceeds the size limit")

// readBody buffers a request or response body of at most limit bytes into
// a buffer reserved from the declared length (negative = undeclared), so
// a body that keeps its word is allocated once; the MinRead of slack is
// where ReadFrom meets the EOF. A declared length past the limit is
// refused unread, an actual one by reading one byte past it.
func readBody(body io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, errBodyTooBig
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(max(declared, 0), maxBodyReserve)+bytes.MinRead))
	_, err := buf.ReadFrom(io.LimitReader(body, limit+1))
	if err == nil && int64(buf.Len()) > limit {
		err = errBodyTooBig
	}
	return buf.Bytes(), err
}

// readBatchRequest reads and decodes the query-batch frame the query
// route takes, writing the error response itself: a 413 past
// maxBatchBytes, a 400 for a body that does not arrive or decode.
func readBatchRequest(w http.ResponseWriter, r *http.Request) ([]query.Query, bool) {
	body, err := readBody(r.Body, r.ContentLength, maxBatchBytes)
	if errors.Is(err, errBodyTooBig) {
		http.Error(w, "batch request exceeds the size limit; split it", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	qs, err := wire.DecodeQueryBatch(body)
	if err != nil {
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return qs, true
}

// handleBatch answers many queries in one exchange. The whole batch is
// decoded up front; the backend fans the queries out across its worker
// pool, and every per-query failure travels inside the frame so the
// other answers still arrive.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	qs, ok := readBatchRequest(w, r)
	if !ok {
		return
	}
	var ctr metrics.Counter
	answers, errs := h.b.QueryBatch(r.Context(), qs, backend.WithCounter(&ctr))
	items := make([]wire.BatchAnswer, len(qs))
	for i := range qs {
		items[i] = batchItem(answers[i], errs[i])
		h.tally.count(answers[i].Shard, errs[i])
	}
	h.tally.addCost(ctr)
	frame, err := wire.EncodeAnswerBatch(items)
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// batchItem converts one backend outcome into its wire item, carrying
// the status explicitly — a refusal stays a refusal even when its
// message renders empty — and the epoch the backend answered under
// (kept on refusals, like the shard, so attribution survives errors).
func batchItem(ans backend.Answer, err error) wire.BatchAnswer {
	if err != nil {
		return wire.NewRefusal(err.Error(), ans.Shard).AtEpoch(ans.Epoch)
	}
	return wire.NewAnswer(ans.Raw, ans.Shard).AtEpoch(ans.Epoch)
}

// handleParams serves the trust bundle with the *live* serving epoch:
// the bundle fields are fixed at construction (verifier, template,
// domain never change across epochs of one database); only the epoch is
// read per request, so a client re-reading /params after an
// epoch-mismatch error always sees the current one.
func (h *Handler) handleParams(w http.ResponseWriter, _ *http.Request) {
	p := h.params
	p.Epoch = h.liveEpoch()
	writeJSON(w, p)
}

// liveEpoch reads the backend's live epochs into the tally's gauges —
// a server swaps, a front's children swap at their own pace, and the
// gauges would otherwise freeze at boot values — and returns the
// serving epoch. An advance since the last read counts as a swap.
func (h *Handler) liveEpoch() uint64 {
	epoch := backend.Epoch(h.b)
	h.tally.observe(epoch, backend.Epochs(h.b))
	return epoch
}

func (h *Handler) handleStats(w http.ResponseWriter, _ *http.Request) {
	epoch := h.liveEpoch()
	cost := h.tally.cost()
	body := map[string]any{
		"backend":      h.b.Name(),
		"queries":      h.tally.queries.Load(),
		"errors":       h.tally.errors.Load(),
		"nodesVisited": cost.NodesVisited,
		"bytes":        cost.Bytes,
		"epoch":        epoch,
		"swaps":        h.tally.swaps.Load(),
	}
	if ss := h.tally.shardStats(); ss != nil {
		body["shards"] = len(ss)
		body["perShard"] = ss
	}
	if h.cache != nil {
		body["cache"] = h.cache.CacheStats()
	}
	writeJSON(w, body)
}

// writeJSON encodes v to a buffer first so an encoding failure can still
// surface as a 500 — once bytes hit the wire the status is committed —
// and sets Content-Type before any write. A failed response write is
// logged; there is no one left to report it to.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("transport: writing JSON response: %v", err)
	}
}

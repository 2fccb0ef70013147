package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/wire"
)

// cannedBackend answers every query with the same bytes and allocates
// nothing doing so, so an exchange over it measures the transport alone.
type cannedBackend struct{ raw []byte }

func (c cannedBackend) process(query.Query, *metrics.Counter) (int, uint64, []byte, error) {
	return wire.ShardNone, 1, c.raw, nil
}
func (c cannedBackend) Name() string  { return "ifmh-multi" }
func (c cannedBackend) Epoch() uint64 { return 1 }
func (c cannedBackend) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, c, q, opts...)
}
func (c cannedBackend) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return backend.DriveBatch(ctx, c.process, qs, opts...)
}

// serveCanned stands one handler over b up and dials it.
func serveCanned(t *testing.T, b backend.Backend) (*Remote, *httptest.Server) {
	t.Helper()
	_, pub, _ := fixtures(t)
	h, err := NewBackendHandler(b, bundleParams(t, pub))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	r, err := DialRemote(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return r, ts
}

// allocatedBy is the process-wide TotalAlloc delta across fn.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBatchExchangeAllocBudget pins "allocated once per hop" where the
// bytes are: a 64-answer, ~100 KB exchange — handler to Remote.QueryBatch,
// both ends in this process — must allocate its payload once to send and
// once to receive: 3x direct with everything HTTP adds, 7x through a
// two-child Fanout relay (two hops and the fan-out's own goroutines and
// slices; the race detector adds half a payload). An undeclared length
// (io.ReadAll's doubling chain), a zero-capacity frame writer and a
// payload copy in the batch decoder together put them at 12x and 22x.
func TestBatchExchangeAllocBudget(t *testing.T) {
	canned := cannedBackend{raw: bytes.Repeat([]byte{0xA1}, 1600)}
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = query.NewTopK(geometry.Point{-1 + 2*(float64(i)+0.5)/64}, 4)
	}
	payload := uint64(len(qs) * len(canned.raw))

	direct, _ := serveCanned(t, canned)
	left, _ := serveCanned(t, canned)
	right, _ := serveCanned(t, canned)
	plan, err := shard.NewPlan(dom, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := backend.NewFanout(plan, []backend.Backend{left, right})
	if err != nil {
		t.Fatal(err)
	}
	relayed, _ := serveCanned(t, fan)

	for _, tc := range []struct {
		name   string
		r      *Remote
		budget uint64
	}{
		{"direct", direct, 3 * payload},
		{"relayed", relayed, 7 * payload},
	} {
		exchange := func() {
			answers, errs := tc.r.QueryBatch(context.Background(), qs)
			for i := range answers {
				if errs[i] != nil || !bytes.Equal(answers[i].Raw, canned.raw) {
					t.Fatalf("%s: answer %d: err %v, %d bytes", tc.name, i, errs[i], len(answers[i].Raw))
				}
			}
		}
		exchange() // connections, pools and lazy set-up are not the exchange's bill
		const rounds = 8
		got := allocatedBy(func() {
			for i := 0; i < rounds; i++ {
				exchange()
			}
		}) / rounds
		t.Logf("%s: %d bytes allocated per exchange of %d payload bytes (%.1fx)", tc.name, got, payload, float64(got)/float64(payload))
		if got > tc.budget {
			t.Errorf("%s: %d bytes allocated per exchange, budget %d (%dx the %d payload bytes)",
				tc.name, got, tc.budget, tc.budget/payload, payload)
		}
	}
}

// TestBufferedResponsesDeclareTheirLength: the buffered route sends its
// frame with a Content-Length (so the receiver reserves it once) — a
// batch of one, which is every single query, as much as a batch of
// many.
func TestBufferedResponsesDeclareTheirLength(t *testing.T) {
	// Past the 2 KB under which net/http would declare a length by itself.
	_, ts := serveCanned(t, cannedBackend{raw: bytes.Repeat([]byte{0xA1}, 3000)})
	q := query.NewTopK(geometry.Point{0}, 1)
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/query/batch", wire.EncodeQueryBatch([]query.Query{q})},
		{"/query/batch", wire.EncodeQueryBatch([]query.Query{q, q})},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v", tc.path, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d for a %d-byte frame", tc.path, resp.ContentLength, len(body))
		}
	}
}

// rawRequest writes one hand-made HTTP/1.1 request — head and as much of
// the body as the row wants to send — half-closes, and reads the
// response: what a peer that lies about its length looks like.
func rawRequest(t *testing.T, addr, head string, body []byte) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	conn.Write(body) // a server that refused by the header may already have hung up
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestBodyLimitsAreCheckedBeforeMemoryIsSpent drives readBody through
// both directions of a real connection: a declared length is honoured as
// a reservation only up to maxBodyReserve, refused by name past the
// limit before a byte is read, and a peer that declares much and sends
// little costs what it sent. The lying rows allocate under 2 MiB where
// the limits they sit next to are 4 and 512 MiB.
func TestBodyLimitsAreCheckedBeforeMemoryIsSpent(t *testing.T) {
	const lieBudget = 2 << 20
	q := query.NewTopK(geometry.Point{0}, 1)
	batch := wire.EncodeQueryBatch([]query.Query{q, q, q})
	junk := bytes.Repeat([]byte{0x5A}, 2<<20)

	t.Run("request", func(t *testing.T) {
		_, ts := serveCanned(t, cannedBackend{raw: []byte{0xA1, 7}})
		addr := ts.Listener.Addr().String()
		head := func(framing string) string {
			return "POST /query/batch HTTP/1.1\r\nHost: x\r\nContent-Type: application/octet-stream\r\n" + framing + "\r\n\r\n"
		}
		chunked := fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(batch), batch)
		for _, tc := range []struct {
			name    string
			framing string
			body    []byte
			status  int
			says    string
			lie     bool
		}{
			{"declared within the reserve", fmt.Sprintf("Content-Length: %d", len(batch)), batch, http.StatusOK, "", false},
			{"declared past the reserve, within the limit", fmt.Sprintf("Content-Length: %d", len(junk)), junk, http.StatusBadRequest, "bad batch", false},
			{"declared past the limit", "Content-Length: 1073741824", batch, http.StatusRequestEntityTooLarge, "split it", true},
			{"undeclared, chunked", "Transfer-Encoding: chunked", []byte(chunked), http.StatusOK, "", false},
			{"undeclared, chunked past the limit", "Transfer-Encoding: chunked", []byte(fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", len(junk), junk, len(junk), junk, len(junk), junk)), http.StatusRequestEntityTooLarge, "split it", false},
			{"declared at the limit, truncated", fmt.Sprintf("Content-Length: %d", maxBatchBytes), batch, http.StatusBadRequest, "unexpected EOF", true},
		} {
			var status int
			var msg string
			got := allocatedBy(func() { status, msg = rawRequest(t, addr, head(tc.framing), tc.body) })
			if status != tc.status || !strings.Contains(msg, tc.says) {
				t.Errorf("%s: status %d %q, want %d mentioning %q", tc.name, status, strings.TrimSpace(msg), tc.status, tc.says)
			}
			if tc.lie && got > lieBudget {
				t.Errorf("%s: %d bytes allocated for a %d-byte body", tc.name, got, len(tc.body))
			}
		}
	})

	t.Run("response", func(t *testing.T) {
		// The peer is a server that writes its own head, so it can
		// declare what it likes and then hang up.
		var framing string
		var body []byte
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			defer conn.Close()
			// Connection: close, or the client would reuse a connection
			// this handler is about to hang up on.
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n%s\r\n", framing)
			buf.Write(body)
			buf.Flush()
		}))
		defer ts.Close()
		c := &HTTPClient{base: ts.URL, hc: ts.Client()}
		big := bytes.Repeat([]byte{0xA1}, 3<<20)
		for _, tc := range []struct {
			name    string
			framing string
			body    []byte
			limit   int64
			want    []byte // nil = an error mentioning says
			says    string
			lie     bool
		}{
			{"declared within the reserve", "Content-Length: 1000\r\n", big[:1000], maxBatchAnswerBytes, big[:1000], "", false},
			{"declared past the reserve, within the limit", fmt.Sprintf("Content-Length: %d\r\n", len(big)), big, maxBatchAnswerBytes, big, "", false},
			{"declared past the limit", fmt.Sprintf("Content-Length: %d\r\n", maxBatchAnswerBytes+1), big[:1000], maxBatchAnswerBytes, nil, fmt.Sprintf("answer exceeds %d bytes", maxBatchAnswerBytes), true},
			{"undeclared, chunked", "Transfer-Encoding: chunked\r\n", []byte("3e8\r\n" + string(big[:1000]) + "\r\n0\r\n\r\n"), maxBatchAnswerBytes, big[:1000], "", false},
			{"undeclared, to the close, past the limit", "", big, 1 << 20, nil, "answer exceeds 1048576 bytes", false},
			{"declared at the limit, truncated", fmt.Sprintf("Content-Length: %d\r\n", maxBatchAnswerBytes), big[:1000], maxBatchAnswerBytes, nil, "read answer: unexpected EOF", true},
		} {
			framing, body = tc.framing, tc.body
			var out []byte
			var err error
			got := allocatedBy(func() { out, err = c.post(context.Background(), "/query/batch", nil, tc.limit) })
			switch {
			case tc.want != nil && (err != nil || !bytes.Equal(out, tc.want)):
				t.Errorf("%s: %d bytes, err %v; want the %d the server sent", tc.name, len(out), err, len(tc.want))
			case tc.want == nil && (err == nil || !strings.Contains(err.Error(), tc.says)):
				t.Errorf("%s: err %v, want one mentioning %q", tc.name, err, tc.says)
			}
			if tc.lie && got > lieBudget {
				t.Errorf("%s: %d bytes allocated for a %d-byte body", tc.name, got, len(tc.body))
			}
		}
	})
}

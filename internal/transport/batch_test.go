package transport

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/verify"
)

// TestMethodNotAllowed: routes use Go 1.22 method patterns, so a request
// with the wrong method must be a 405, not a silent 404 — the regression
// that hid behind the missing go.mod.
func TestMethodNotAllowed(t *testing.T) {
	srv, pub, _ := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/query/stream"},
		{http.MethodGet, "/query/batch"},
		{http.MethodPost, "/params"},
		{http.MethodPost, "/stats"},
		{http.MethodDelete, "/query/batch"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, http.StatusMethodNotAllowed)
		}
	}
}

// TestHTTPBatchRoundTrip drives the batched query plane end to end: many
// queries in one frame, per-item verification on the client, and
// per-item server refusals that do not fail the batch.
func TestHTTPBatchRoundTrip(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	r, withVerify := dialVerifying(t, ts.URL, ts.Client())
	ctx := context.Background()
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	qs := []query.Query{
		query.NewTopK(x, 3),
		query.NewBottomK(x, 3),
		query.NewTopK(geometry.Point{dom.Hi[0] + 9}, 1), // refused: outside the domain
		query.NewRange(x, -2, 2),
		query.NewKNN(x, 3, 0),
	}
	answers, errs := r.QueryBatch(ctx, qs, withVerify)
	if len(answers) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(answers), len(qs))
	}
	for i, ans := range answers {
		if i == 2 {
			if errs[i] == nil {
				t.Error("out-of-domain query succeeded in batch")
			} else if errors.Is(errs[i], verify.ErrVerification) {
				t.Errorf("server refusal misclassified as a verification rejection: %v", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("query %d: %v", i, errs[i])
			continue
		}
		if qs[i].Kind != query.Range && len(ans.Records) != 3 {
			t.Errorf("query %d: got %d records", i, len(ans.Records))
		}
	}

	// The batched answers must match the one-at-a-time ones.
	for i, q := range qs {
		if i == 2 {
			continue
		}
		single, err := r.Query(ctx, q, withVerify)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single.Raw, answers[i].Raw) {
			t.Errorf("query %d: batched bytes differ from a batch of one", i)
		}
		if len(single.Records) != len(answers[i].Records) {
			t.Errorf("query %d: batch returned %d records, sequential %d", i, len(answers[i].Records), len(single.Records))
		}
	}
}

// TestHTTPBatchTamperingRejected: a channel flipping bits inside the
// batch frame must not get any record past verification.
func TestHTTPBatchTamperingRejected(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(h)
	defer origin.Close()
	target, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(&tamperingProxy{target: target, hc: origin.Client()})
	defer proxy.Close()

	r, withVerify := dialVerifying(t, proxy.URL, proxy.Client())
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	qs := []query.Query{query.NewRange(x, -2, 2), query.NewTopK(x, 3)}
	for trial := 0; trial < 10; trial++ {
		// Every byte of the frame is load-bearing, so the flipped bit
		// must take down at least one item — or, when it breaks the
		// outer frame, all of them as a transport failure.
		_, errs := r.QueryBatch(context.Background(), qs, withVerify)
		if errs[0] == nil && errs[1] == nil {
			t.Fatal("bit-flipped batch answer fully accepted")
		}
	}
}

// TestHTTPBatchBadFrame: junk bytes to the batch endpoint are a 400.
func TestHTTPBatchBadFrame(t *testing.T) {
	srv, pub, _ := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/query/batch", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk batch: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

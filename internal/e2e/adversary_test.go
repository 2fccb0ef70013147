package e2e

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/tamper"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// ask sends qs through one of the two entry points of b; the sweeps
// run every adversary through both.
var entryPoints = []struct {
	name string
	ask  func(b backend.Backend, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error)
}{
	{"Query", func(b backend.Backend, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
		answers, errs := make([]backend.Answer, len(qs)), make([]error, len(qs))
		for i, q := range qs {
			answers[i], errs[i] = b.Query(context.Background(), q, opts...)
		}
		return answers, errs
	}},
	{"QueryBatch", func(b backend.Backend, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
		return b.QueryBatch(context.Background(), qs, opts...)
	}},
}

func sameRecords(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Encode(nil), b[i].Encode(nil)) {
			return false
		}
	}
	return true
}

// TestAdversaryOnEverySurface is the paper's threat model (§2.2) run
// against the whole plane: a tamper.Channel sits between each surface
// and the verifying user, and every adversary — random bit flips, the
// attack catalogue (the lying server: same bytes it could have produced
// itself), garbage and empty bytes, a replayed honest answer to a
// different query — must be rejected with verify.ErrVerification, through
// Query and QueryBatch alike. A refused query stays a
// server error, never a verification rejection. Every surface takes the
// battery twice: cold, and again after a verifying caller has been
// there first — a cache then holds verified records for the honest
// bytes, and a dialed session's memo the honest signatures, and neither
// may lend them to the adversary's. Both signing modes.
func TestAdversaryOnEverySurface(t *testing.T) {
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		ss, plan, _ := surfaces(t, 60, 3, mode)
		dom := plan.Domain
		x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
		q := query.NewTopK(x, 5)
		other := query.NewTopK(x, 3)
		qs := []query.Query{q, query.NewRange(x, -2, 2), query.NewKNN(x, 4, 0)}
		prefix := "" // the one-signature rows keep the names they have always had
		if mode == verify.MultiSignature {
			prefix = mode.String() + "/"
		}

		for _, su := range ss {
			for _, pass := range []string{"", "-warm"} {
				t.Run(prefix+su.name+pass, func(t *testing.T) {
					if pass == "-warm" {
						_, errs := su.b.QueryBatch(context.Background(), append(qs[:len(qs):len(qs)], other), su.verify)
						if err := errors.Join(errs...); err != nil {
							t.Fatalf("warming with verified queries: %v", err)
						}
					}
					adversaries(t, su, qs, other, dom)
				})
			}
		}
	}
}

// adversaries runs the whole battery against one surface.
func adversaries(t *testing.T, su surface, qs []query.Query, other query.Query, dom geometry.Box) {
	rng := rand.New(rand.NewSource(4))
	channel := func(rewrite func(query.Query, []byte) []byte) backend.Backend {
		return tamper.Channel{Inner: su.b, Rewrite: rewrite}
	}
	identity := func(_ query.Query, raw []byte) []byte { return raw }

	for _, ep := range entryPoints {
		// The identity channel verifies; these are the honest
		// answers the adversaries are measured against.
		honest, errs := ep.ask(channel(identity), qs, su.verify)
		for i := range qs {
			if errs[i] != nil {
				t.Fatalf("%s: honest channel rejected query %d: %v", ep.name, i, errs[i])
			}
			if honest[i].Epoch == 0 {
				t.Fatalf("%s: answer %d carries no publication epoch", ep.name, i)
			}
		}

		// Random bit flips: never a changed record set. A flip
		// may land in a byte no security property rests on (the
		// sign of an unused zero field in the query echo) and
		// verify — then the accepted records are bit-identical.
		rejected := 0
		flip := func(_ query.Query, raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8))
			return out
		}
		for trial := 0; trial < 40; trial++ {
			answers, errs := ep.ask(channel(flip), qs[:1], su.verify)
			switch {
			case errs[0] == nil:
				if !sameRecords(answers[0].Records, honest[0].Records) {
					t.Fatalf("%s: bit-flipped answer accepted with different records", ep.name)
				}
			case !errors.Is(errs[0], verify.ErrVerification):
				t.Fatalf("%s: bit flip surfaced as %v, want ErrVerification", ep.name, errs[0])
			default:
				rejected++
				if answers[0].Records != nil || answers[0].Raw != nil {
					t.Fatalf("%s: rejected answer still carries bytes or records", ep.name)
				}
			}
		}
		if rejected < 30 {
			t.Errorf("%s: only %d/40 bit flips rejected", ep.name, rejected)
		}

		// Garbage, empty, and a replayed honest answer to another
		// query: always rejected.
		replay, err := su.b.Query(context.Background(), other)
		if err != nil {
			t.Fatal(err)
		}
		for name, rewrite := range map[string]func(query.Query, []byte) []byte{
			"garbage": func(query.Query, []byte) []byte { return []byte("not an answer") },
			"empty":   func(query.Query, []byte) []byte { return nil },
			"replay":  func(query.Query, []byte) []byte { return replay.Raw },
		} {
			_, errs := ep.ask(channel(rewrite), qs[:1], su.verify)
			if !errors.Is(errs[0], verify.ErrVerification) {
				t.Fatalf("%s: %s accepted or misclassified: %v", ep.name, name, errs[0])
			}
		}
	}

	// The attack catalogue, batched: every attack that changes an
	// answer's bytes takes down exactly that item.
	applied := 0
	for _, atk := range tamper.IFMHCatalog() {
		rewrite := tamper.IFMHAttack(atk, rng)
		hit := make(map[string]bool) // queries whose answer the attack changed
		ch := channel(func(q query.Query, raw []byte) []byte {
			out := rewrite(q, raw)
			hit[string(wire.EncodeQuery(q))] = !bytes.Equal(out, raw)
			return out
		})
		_, errs := ch.QueryBatch(context.Background(), qs, su.verify)
		for i, q := range qs {
			switch {
			case hit[string(wire.EncodeQuery(q))]:
				applied++
				if !errors.Is(errs[i], verify.ErrVerification) {
					t.Fatalf("attack on query %d accepted or misclassified: %v", i, errs[i])
				}
			case errs[i] != nil:
				t.Fatalf("untampered query %d rejected: %v", i, errs[i])
			}
		}
	}
	if applied == 0 {
		t.Error("no catalogue attack applied")
	}

	// A server refusal passes through the channel as itself.
	oob := query.NewTopK(geometry.Point{dom.Hi[0] + 5}, 1)
	if _, err := channel(identity).Query(context.Background(), oob, su.verify); err == nil {
		t.Error("out-of-domain query returned records")
	} else if errors.Is(err, verify.ErrVerification) {
		t.Errorf("server error misclassified as a verification rejection: %v", err)
	}
}

// detour is the network adversary of the replay row: while a target is
// set, the session's requests are answered by another server.
type detour struct{ to atomic.Pointer[url.URL] }

func (d *detour) RoundTrip(req *http.Request) (*http.Response, error) {
	if u := d.to.Load(); u != nil {
		req = req.Clone(req.Context())
		req.URL.Host = u.Host
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDialedSessionPoison aims at the one thing a dialed session keeps
// between answers, its memo of accepted owner signatures, after a
// verifying caller has filled it. (i) An honest, memoised signature over
// a VO whose FMH root differs and (ii) a memoised digest under another
// memoised signature — another subdomain's, or under one signature the
// previous epoch's root — form pairs the owner never signed: they miss
// the memo, reach the public-key check and fail it. (iii) An honest
// answer of the previous epoch, replayed after apply + swap + refresh,
// carries a signature that is still valid under the pinned key and is
// in the warm session's memo; what stops it is the epoch word, which
// every answer carries on every entry point, so the warm session and a
// fresh one, whose memo is empty, give one verdict: stale.
func TestDialedSessionPoison(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		t.Run(mode.String(), func(t *testing.T) {
			tbl, dom, err := workload.Lines(workload.LinesConfig{N: 60, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			prev := outsource(t, tbl, dom, build.WithMode(mode), build.WithShuffle(3))
			live := newServer(t, local(t, prev.Tree))
			h, err := transport.NewIFMHHandler(live, prev.Public)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(h)
			defer ts.Close()
			lagging, err := url.Parse(serve(t, local(t, prev.Tree), prev.Public))
			if err != nil {
				t.Fatal(err)
			}
			network := &detour{}
			dial := func() (*transport.Remote, backend.Option, *verify.Memoized) {
				r, err := transport.DialRemote(ts.URL, &http.Client{Transport: network})
				if err != nil {
					t.Fatal(err)
				}
				pub, _ := r.Client().Public()
				return r, backend.WithVerify(pub), pub.Verifier.(*verify.Memoized)
			}
			at := func(f float64) geometry.Point { return geometry.Point{dom.Lo[0] + f*(dom.Hi[0]-dom.Lo[0])} }
			qs := []query.Query{query.NewTopK(at(0.25), 5), query.NewTopK(at(0.75), 5)}

			warm, withVerify, memo := dial()
			signatures := func() [2][]byte {
				var out [2][]byte
				answers, errs := warm.QueryBatch(ctx, qs, withVerify)
				for i := range qs {
					if errs[i] != nil {
						t.Fatalf("warming query %d: %v", i, errs[i])
					}
					ans, err := wire.DecodeIFMH(answers[i].Raw)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = ans.VO.Signature
				}
				return out
			}
			// poison rewrites the honest answer to qs[0] on every entry
			// point; the memo must take no part in the rejection.
			poison := func(row string, edit func(*verify.Answer)) {
				rewrite := func(_ query.Query, raw []byte) []byte {
					ans, err := wire.DecodeIFMH(raw)
					if err != nil {
						t.Fatal(err)
					}
					edit(ans)
					return wire.EncodeIFMH(ans)
				}
				for _, ep := range entryPoints {
					hits := memo.Hits()
					_, errs := ep.ask(tamper.Channel{Inner: warm, Rewrite: rewrite}, qs[:1], withVerify)
					if !errors.Is(errs[0], verify.ErrVerification) || !strings.Contains(errs[0].Error(), "signature:") {
						t.Fatalf("%s via %s: err = %v, want the signature check to reject it", row, ep.name, errs[0])
					}
					if memo.Hits() != hits {
						t.Fatalf("%s via %s: the memo answered for a pair the owner never signed", row, ep.name)
					}
				}
			}

			old := signatures()
			if want := map[verify.Mode]uint64{verify.OneSignature: 1, verify.MultiSignature: 2}[mode]; memo.Misses() != want {
				t.Fatalf("warming memoised %d signatures, want %d", memo.Misses(), want)
			}
			poison("honest signature over another FMH root", func(a *verify.Answer) { a.Records[0].ID ^= 1 })
			if mode == verify.MultiSignature {
				poison("another subdomain's signature", func(a *verify.Answer) { a.VO.Signature = old[1] })
			}

			// The owner republishes; the session follows.
			upd := tbl.Records[0]
			upd.Attrs = append([]float64(nil), upd.Attrs...)
			upd.Attrs[0] += 0.01
			next, err := build.Apply(ctx, prev, build.Update(0, upd))
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Swap(local(t, next.Tree)); err != nil {
				t.Fatal(err)
			}
			if e, err := warm.Client().Refresh(ctx); err != nil || e != 2 {
				t.Fatalf("refresh: epoch %d, err %v", e, err)
			}
			if pub, _ := warm.Client().Public(); pub.Epoch != 2 || warm.Client().Params().Epoch != 2 {
				t.Fatalf("refreshed to epoch 2, but the session publishes Public().Epoch = %d, Params().Epoch = %d",
					pub.Epoch, warm.Client().Params().Epoch)
			}
			signatures() // honest epoch-2 answers verify, through the same memo
			if mode == verify.OneSignature {
				poison("previous epoch's root signature", func(a *verify.Answer) { a.VO.Signature = old[0] })
			}

			cold, coldVerify, coldMemo := dial()
			network.to.Store(lagging)
			defer network.to.Store(nil)
			for _, ep := range entryPoints {
				var verdict [2]string
				for i, s := range []struct {
					b      backend.Backend
					verify backend.Option
				}{{cold, coldVerify}, {warm, withVerify}} {
					_, errs := ep.ask(s.b, qs[:1], s.verify)
					var stale *backend.EpochError
					switch {
					case errs[0] == nil:
						verdict[i] = "accepted"
					case errors.As(errs[0], &stale) && stale.Want == 2 && stale.Got == 1:
						verdict[i] = "stale"
					default:
						verdict[i] = errs[0].Error()
					}
				}
				if verdict[0] != "stale" || verdict[1] != "stale" {
					t.Errorf("epoch-1 replay via %s: cold session %q, warm session %q, want \"stale\"", ep.name, verdict[0], verdict[1])
				}
			}
			if coldMemo.Hits() != 0 {
				t.Errorf("fresh session's memo reports %d hits", coldMemo.Hits())
			}
		})
	}
}

package e2e

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/tamper"
	"aqverify/internal/wire"
)

// ask sends qs through one of the three entry points of b; the sweeps
// run every adversary through all of them.
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
	{"QueryStream", func(b backend.Backend, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
		answers, errs := make([]backend.Answer, len(qs)), make([]error, len(qs))
		for i, r := range b.QueryStream(context.Background(), qs, opts...) {
			answers[i], errs[i] = r.Answer, r.Err
		}
		return answers, errs
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
// different query — must be rejected with core.ErrVerification, through
// Query, QueryBatch and QueryStream alike. A refused query stays a
// server error, never a verification rejection. Every surface takes the
// battery twice: cold, and again after a verifying caller has been
// there first — a cache then holds verified records for the honest
// bytes, and must not lend them to the adversary's.
func TestAdversaryOnEverySurface(t *testing.T) {
	ss, plan, _ := surfaces(t, 60, 3, core.OneSignature)
	dom := plan.Domain
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	q := query.NewTopK(x, 5)
	other := query.NewTopK(x, 3)
	qs := []query.Query{q, query.NewRange(x, -2, 2), query.NewKNN(x, 4, 0)}

	for _, su := range ss {
		for _, pass := range []string{"", "-warm"} {
			t.Run(su.name+pass, func(t *testing.T) {
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
			case !errors.Is(errs[0], core.ErrVerification):
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
			if !errors.Is(errs[0], core.ErrVerification) {
				t.Fatalf("%s: %s accepted or misclassified: %v", ep.name, name, errs[0])
			}
		}
	}

	// The attack catalogue, batched: every attack that changes an
	// answer's bytes takes down exactly that item.
	var rewrites []func(query.Query, []byte) []byte
	if su.name == "mesh-server" {
		for _, atk := range tamper.MeshCatalog() {
			rewrites = append(rewrites, tamper.MeshAttack(atk, rng))
		}
	} else {
		for _, atk := range tamper.IFMHCatalog() {
			rewrites = append(rewrites, tamper.IFMHAttack(atk, rng))
		}
	}
	applied := 0
	for _, rewrite := range rewrites {
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
				if !errors.Is(errs[i], core.ErrVerification) {
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
	} else if errors.Is(err, core.ErrVerification) {
		t.Errorf("server error misclassified as a verification rejection: %v", err)
	}
}

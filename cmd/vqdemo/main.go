// Command vqdemo walks the full outsourcing story end to end: a data
// owner builds and signs the IFMH-tree, a cloud server answers analytic
// queries with verification objects, an honest round trip verifies, a
// battery of attacks by a lying server or network adversary is rejected,
// and the owner mutates the live database — the incremental
// re-outsourcing is swapped in as a new epoch, a pinned client detects
// the bump as a typed error, refreshes, and resumes verified queries.
//
// Usage:
//
//	vqdemo [-n records] [-mode one|multi] [-seed n]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"

	bkd "aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/tamper"
	"aqverify/internal/transport"
	"aqverify/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vqdemo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vqdemo", flag.ExitOnError)
	var (
		n       = fs.Int("n", 500, "database size")
		modeStr = fs.String("mode", "one", "IFMH signing mode: one|multi")
		seed    = fs.Int64("seed", 42, "workload seed (also seeds the IMH-tree shape)")
	)
	fs.Parse(args)

	var mode core.Mode
	switch *modeStr {
	case "one":
		mode = core.OneSignature
	case "multi":
		mode = core.MultiSignature
	default:
		return fmt.Errorf("unknown mode %q (want one or multi)", *modeStr)
	}

	fmt.Printf("== Outsourcing a %d-record database ==\n", *n)
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: *n, Seed: *seed})
	if err != nil {
		return err
	}
	tpl := funcs.AffineLine(0, 1)
	signer, err := sig.NewSigner(sig.RSA, sig.Options{})
	if err != nil {
		return err
	}
	spec := build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: signer}
	ctx := context.Background()

	// The three parties: the owner's build, the server hosting it, and
	// the user's verification option over the owner's published bundle.
	res, err := build.Outsource(ctx, spec, build.WithMode(mode), build.WithShuffle(*seed))
	if err != nil {
		return err
	}
	st := res.Tree.Stats()
	fmt.Printf("built IFMH-tree (%v): %d subdomains, %d IMH nodes (depth %d), %d shared FMH nodes, %d signature(s)\n",
		mode, st.Subdomains, st.IMHNodes, st.IMHDepth, st.FMHNodes, st.Signatures)
	local, err := bkd.NewLocal(res.Tree)
	if err != nil {
		return err
	}
	srv, err := server.New(local)
	if err != nil {
		return err
	}
	verify := bkd.WithVerify(res.Public)
	rng := rand.New(rand.NewSource(*seed))

	x := geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*0.5}
	queries := []query.Query{
		query.NewTopK(x, 5),
		query.NewRange(x, -1, 1),
		query.NewKNN(x, 5, 0),
	}
	var client metrics.Counter // the verified calls' cumulative cost: the server's walk plus the user's verification

	fmt.Println("\n== Honest round trips ==")
	for _, q := range queries {
		ans, err := srv.Query(ctx, q, verify, bkd.WithCounter(&client))
		if err != nil {
			return fmt.Errorf("%v: %w", q.Kind, err)
		}
		fmt.Printf("%-6v verified %d records", q.Kind, len(ans.Records))
		if len(ans.Records) > 0 {
			f := tpl.Interpret(0, ans.Records[0])
			fmt.Printf(" (first: id=%d score=%.3f)", ans.Records[0].ID, f.Eval(q.X))
		}
		fmt.Println()
	}

	// Each attack sits between server and user as a tamper.Channel; an
	// attack that leaves the honest bytes unchanged does not apply to
	// this answer and is skipped.
	fmt.Println("\n== Attacks ==")
	detected, applied := 0, 0
	for _, q := range queries {
		honest, err := srv.Query(ctx, q)
		if err != nil {
			return err
		}
		for _, atk := range tamper.IFMHCatalog() {
			rewrite := tamper.IFMHAttack(atk, rng)
			did := false
			ch := tamper.Channel{Inner: srv, Rewrite: func(q query.Query, raw []byte) []byte {
				out := rewrite(q, raw)
				did = !bytes.Equal(out, honest.Raw)
				return out
			}}
			_, err := ch.Query(ctx, q, verify, bkd.WithCounter(&client))
			if !did {
				continue
			}
			applied++
			if errors.Is(err, core.ErrVerification) {
				detected++
			} else {
				fmt.Printf("MISSED: %s on %v (err=%v)\n", atk.Name, q.Kind, err)
			}
		}
	}
	fmt.Printf("detected %d/%d applied attacks\n", detected, applied)
	if detected != applied {
		return fmt.Errorf("%d attacks went undetected", applied-detected)
	}

	if err := liveMutation(ctx, res, srv, dom, *n); err != nil {
		return err
	}

	fmt.Printf("\nverified calls, cumulative (server walk + client verification): %s\n", client.String())
	return nil
}

// liveMutation walks the mutation plane end to end over a real HTTP
// exchange: a verifying client pins the serving epoch at dial, the
// owner applies a record-level mutation batch and the server swaps the
// new bundle in, the client's next query surfaces the typed staleness
// signal instead of a misleading verification failure, and a refresh
// plus the owner's republished parameters restore verified service at
// the new epoch.
func liveMutation(ctx context.Context, res *build.Result, srv *server.Server, dom geometry.Box, n int) error {
	fmt.Println("\n== Live mutation: epoch-versioned re-outsourcing ==")
	h, err := transport.NewIFMHHandler(srv, res.Public)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	r, err := transport.DialRemote(ts.URL, nil)
	if err != nil {
		return err
	}
	fmt.Printf("client dialed %s, pinned epoch %d\n", ts.URL, r.Epoch())

	x := geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*0.5}
	qs := []query.Query{query.NewTopK(x, 3)}
	answers, errs := r.QueryBatch(ctx, qs, bkd.WithVerify(res.Public))
	if errs[0] != nil {
		return errs[0]
	}
	fmt.Printf("verified %d records at epoch %d\n", len(answers[0].Records), answers[0].Epoch)

	// The owner mutates the outsourced table: one insert, one update,
	// one delete, applied as a batch against the epoch-1 snapshot.
	rows := res.Tree.Table().Records
	upd := rows[0]
	upd.Attrs = append([]float64(nil), upd.Attrs...)
	upd.Attrs[0] += 0.25
	muts := []build.Mutation{
		build.Insert(record.Record{ID: uint64(n + 1), Attrs: []float64{0.33, -0.1}}),
		build.Update(0, upd),
		build.Delete(1),
	}
	res2, err := build.Apply(ctx, res, muts...)
	if err != nil {
		return err
	}
	fmt.Printf("owner applied %v -> epoch %d\n", muts, res2.Tree.Epoch())
	local2, err := bkd.NewLocal(res2.Tree)
	if err != nil {
		return err
	}
	if err := srv.Swap(local2); err != nil {
		return err
	}
	fmt.Printf("server swapped to epoch %d (swaps so far: %d)\n", srv.Epoch(), srv.Swaps())

	// The client is still pinned to epoch 1: the next answer arrives
	// stamped with epoch 2 and surfaces as the typed staleness error.
	_, errs = r.QueryBatch(ctx, qs)
	var ee *bkd.EpochError
	if !errors.As(errs[0], &ee) {
		return fmt.Errorf("expected an epoch error after the swap, got %v", errs[0])
	}
	fmt.Printf("client detected staleness: %v\n", ee)

	// Recovery: re-read /params to re-pin, fetch the owner's republished
	// parameters, and re-query — verified at the new epoch.
	e, err := r.Client().Refresh(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("client refreshed, re-pinned epoch %d\n", e)
	answers, errs = r.QueryBatch(ctx, qs, bkd.WithVerify(res2.Public))
	if errs[0] != nil {
		return errs[0]
	}
	fmt.Printf("verified %d records at epoch %d\n", len(answers[0].Records), answers[0].Epoch)
	return nil
}

package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"aqverify/internal/funcs"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/workload"
)

// cancelFixture builds a tree and a pile of verifiable batch items.
func cancelFixture(t *testing.T, n, items int) (PublicParams, []BatchItem) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(tbl, Params{
		Mode: MultiSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]BatchItem, 0, items)
	for i := 0; i < items; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(items+1)
		q := query.NewTopK([]float64{x}, 1+i%7)
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, BatchItem{Query: q, Records: ans.Records, VO: &ans.VO})
	}
	return tree.Public(), out
}

// TestVerifyBatchCtxCanceled: a context canceled before the batch
// starts returns promptly, every item reporting context.Canceled rather
// than a verification verdict.
func TestVerifyBatchCtxCanceled(t *testing.T) {
	pub, items := cancelFixture(t, 40, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	errs := VerifyBatchCtx(ctx, pub, items, 2, nil)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled batch took %v", d)
	}
	sawCanceled := false
	for i, err := range errs {
		if err == nil {
			continue // an in-flight item may legally finish
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, err)
		}
		sawCanceled = true
	}
	if !sawCanceled {
		t.Fatal("no item reports context.Canceled")
	}
}

// TestVerifyBatchCtxMidway cancels while workers are mid-batch: items
// already claimed report their real verdict, the rest context.Canceled,
// and nothing is misreported as a verification failure.
func TestVerifyBatchCtxMidway(t *testing.T) {
	pub, items := cancelFixture(t, 40, 64)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	errs := VerifyBatchCtx(ctx, pub, items, 2, nil)
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: honest answer rejected under cancellation: %v", i, err)
		}
	}
}

// TestVerifyBatchCtxComplete: without cancellation the ctx variant is
// VerifyBatch exactly — all verdicts, full metrics.
func TestVerifyBatchCtxComplete(t *testing.T) {
	pub, items := cancelFixture(t, 40, 12)
	var ctr metrics.Counter
	errs := VerifyBatchCtx(context.Background(), pub, items, 3, &ctr)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d rejected: %v", i, err)
		}
	}
	if ctr.SigVerifies != uint64(len(items)) {
		t.Errorf("counted %d signature verifications, want %d", ctr.SigVerifies, len(items))
	}
}

package backend

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/verify"
)

// exchanged is what a buffered exchange hands FinishBatch: n honest
// unverified answers, attributed to shard 3 of epoch 1, beside the
// bundle they verify under.
func exchanged(t *testing.T, n int) (verify.PublicParams, []query.Query, []Answer) {
	t.Helper()
	_, tree, dom, _ := fixture(t, 60)
	b, err := NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	qs := testQueries(dom, n)
	answers, errs := b.QueryBatch(context.Background(), qs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range answers {
		answers[i].Shard = 3
	}
	return tree.Public(), qs, answers
}

// TestFinishBatch pins the one batch verification path: every genuine
// answer of the exchange comes back with its records, a tampered item
// fails alone, an item that already failed is left as it was, and the
// caller's counter reads the same for every worker count — the sum of
// finishing each answer serially.
func TestFinishBatch(t *testing.T) {
	pub, qs, honest := exchanged(t, 12)
	ctx := context.Background()

	var serial metrics.Counter
	for i, q := range qs {
		ans := honest[i]
		if err := Resolve([]Option{WithVerify(pub)}).Finish(q, &ans, &serial); err != nil {
			t.Fatal(err)
		}
	}
	if serial.SigVerifies != uint64(len(qs)) {
		t.Fatalf("serial finish counted %d signature verifications, want %d", serial.SigVerifies, len(qs))
	}
	for _, workers := range []int{0, 1, 4} {
		answers, errs := slices.Clone(honest), make([]error, len(qs))
		var ctr metrics.Counter
		Resolve([]Option{WithVerify(pub), WithWorkers(workers), WithCounter(&ctr)}).FinishBatch(ctx, qs, answers, errs)
		for i := range qs {
			if errs[i] != nil || len(answers[i].Records) == 0 {
				t.Fatalf("workers=%d item %d: err %v, %d records", workers, i, errs[i], len(answers[i].Records))
			}
		}
		if ctr != serial {
			t.Errorf("workers=%d charged %v, serial finishing %v", workers, &ctr, &serial)
		}
	}

	// One tampered item and one the exchange already refused.
	answers, errs := slices.Clone(honest), make([]error, len(qs))
	answers[5].Raw = slices.Clone(answers[5].Raw)
	answers[5].Raw[40] ^= 0xFF
	refused := errors.New("refused on the wire")
	answers[7], errs[7] = Answer{Shard: 3, Epoch: 1}, refused
	Resolve([]Option{WithVerify(pub), WithWorkers(4)}).FinishBatch(ctx, qs, answers, errs)
	for i := range qs {
		switch {
		case i == 5:
			if !errors.Is(errs[i], verify.ErrVerification) || answers[i].Raw != nil || answers[i].Records != nil {
				t.Errorf("tampered item: err %v, %d bytes, %d records", errs[i], len(answers[i].Raw), len(answers[i].Records))
			}
			if answers[i].Shard != 3 || answers[i].Epoch != 1 {
				t.Errorf("rejected item lost its attribution: shard %d epoch %d", answers[i].Shard, answers[i].Epoch)
			}
		case i == 7:
			if errs[i] != refused {
				t.Errorf("already-failed item was touched: %v", errs[i])
			}
		case errs[i] != nil:
			t.Errorf("item %d rejected beside the tampered one: %v", i, errs[i])
		}
	}

	Resolve([]Option{WithVerify(pub)}).FinishBatch(ctx, nil, nil, nil) // an empty exchange is a no-op
}

// TestFinishBatchCanceled: under a context canceled before it starts,
// FinishBatch returns promptly and every answer it never verified
// reports context.Canceled — not a verdict — stripped to its attribution.
func TestFinishBatchCanceled(t *testing.T) {
	pub, qs, answers := exchanged(t, 32)
	errs := make([]error, len(qs))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Resolve([]Option{WithVerify(pub), WithWorkers(2)}).FinishBatch(ctx, qs, answers, errs)
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
		if a := answers[i]; a.Raw != nil || a.Records != nil || a.Shard != 3 || a.Epoch != 1 {
			t.Fatalf("item %d: a prevented answer keeps only its attribution, got %+v", i, a)
		}
		sawCanceled = true
	}
	if !sawCanceled {
		t.Fatal("no item reports context.Canceled")
	}
}

// TestFinishBatchCanceledMidway cancels while the pool is mid-batch:
// claimed items report their real verdict, the rest context.Canceled,
// and no honest answer is misreported as a verification failure.
func TestFinishBatchCanceledMidway(t *testing.T) {
	pub, qs, answers := exchanged(t, 64)
	errs := make([]error, len(qs))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	Resolve([]Option{WithVerify(pub), WithWorkers(2)}).FinishBatch(ctx, qs, answers, errs)
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: honest answer rejected under cancellation: %v", i, err)
		}
		if err == nil && len(answers[i].Records) == 0 {
			t.Fatalf("item %d: finished without records", i)
		}
	}
}

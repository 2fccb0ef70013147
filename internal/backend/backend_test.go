package backend

import (
	"bytes"
	"context"
	"errors"
	"iter"
	"testing"
	"time"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

func fixture(t *testing.T, n int) (record.Table, *core.Tree, geometry.Box, core.Params) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: verify.MultiSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	}
	tree, err := core.Build(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, tree, dom, p
}

func testQueries(dom geometry.Box, n int) []query.Query {
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(n+1)
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%5))
	}
	return qs
}

// TestLocalMatchesTreeProcess pins the plane to the primitive: a Local
// backend returns, byte for byte, what Tree.Process + wire encoding
// return, through all three entry points.
func TestLocalMatchesTreeProcess(t *testing.T) {
	_, tree, dom, _ := fixture(t, 60)
	b, err := NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "ifmh-multi" {
		t.Errorf("name = %q", b.Name())
	}
	qs := testQueries(dom, 12)
	want := make([][]byte, len(qs))
	for i, q := range qs {
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wire.EncodeIFMH(ans)
	}

	ctx := context.Background()
	for i, q := range qs {
		ans, err := b.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !bytes.Equal(ans.Raw, want[i]) {
			t.Fatalf("query %d: Query bytes differ from Tree.Process", i)
		}
		if ans.Shard != wire.ShardNone {
			t.Fatalf("query %d: local answer attributed to shard %d", i, ans.Shard)
		}
	}

	answers, errs := b.QueryBatch(ctx, qs, WithWorkers(3))
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("batch item %d: %v", i, errs[i])
		}
		if !bytes.Equal(answers[i].Raw, want[i]) {
			t.Fatalf("batch item %d: bytes differ", i)
		}
	}

	seen := make([]bool, len(qs))
	for i, r := range b.QueryStream(ctx, qs, WithWorkers(2)) {
		if r.Err != nil {
			t.Fatalf("stream item %d: %v", i, r.Err)
		}
		if seen[i] {
			t.Fatalf("stream yielded item %d twice", i)
		}
		seen[i] = true
		if !bytes.Equal(r.Answer.Raw, want[i]) {
			t.Fatalf("stream item %d: bytes differ", i)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("stream never yielded item %d", i)
		}
	}
}

// TestWithVerify: the verify option fills Records on honest answers and
// rejects tampered bytes with ErrVerification.
func TestWithVerify(t *testing.T) {
	_, tree, dom, _ := fixture(t, 50)
	b, err := NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	pub := tree.Public()
	ctx := context.Background()
	q := query.NewTopK(geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}, 4)

	var ctr metrics.Counter
	ans, err := b.Query(ctx, q, WithVerify(pub), WithCounter(&ctr))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Records) != 4 {
		t.Fatalf("verified answer has %d records, want 4", len(ans.Records))
	}
	if ctr.SigVerifies == 0 || ctr.Bytes == 0 {
		t.Errorf("counter did not observe verification costs: %+v", ctr)
	}

	// A lying evaluator: flip a byte in every answer.
	liar := tamper{inner: b}
	if _, err := liar.Query(ctx, q, WithVerify(pub)); !errors.Is(err, verify.ErrVerification) {
		t.Fatalf("tampered answer accepted (err=%v)", err)
	}
	_, errs := liar.QueryBatch(ctx, []query.Query{q}, WithVerify(pub))
	if !errors.Is(errs[0], verify.ErrVerification) {
		t.Fatalf("tampered batch answer accepted (err=%v)", errs[0])
	}
	// Without WithVerify the tampered bytes pass through raw — and no
	// unverified record is ever handed out.
	if ans, err := liar.Query(ctx, q); err != nil || ans.Records != nil {
		t.Fatalf("raw query: err=%v, %d records", err, len(ans.Records))
	}
}

// tamper wraps a backend and corrupts every raw answer.
type tamper struct {
	inner *Local
}

func (m tamper) Name() string { return m.inner.Name() }

func (m tamper) process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	sh, epoch, raw, err := m.inner.process(q, ctr)
	if err == nil && len(raw) > 40 {
		raw = append([]byte(nil), raw...)
		raw[40] ^= 0xFF
	}
	return sh, epoch, raw, err
}

func (m tamper) Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error) {
	return One(ctx, m, q, opts...)
}

func (m tamper) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	return DriveBatch(ctx, m.process, qs, opts...)
}

func (m tamper) QueryStream(ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	return DriveStream(ctx, m.process, qs, opts...)
}

// TestShardedMatchesRouter: the Sharded backend answers every query on
// the shard the plan routes it to and attributes the answer to it.
func TestShardedMatchesRouter(t *testing.T) {
	tbl, _, dom, p := fixture(t, 80)
	plan, err := shard.NewPlan(dom, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(tbl, p, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := testQueries(dom, 16)
	answers, errs := b.QueryBatch(ctx, qs, WithVerify(set.Public()))
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		want, err := set.Plan.RouteQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if answers[i].Shard != want {
			t.Fatalf("item %d answered by shard %d, routing says %d", i, answers[i].Shard, want)
		}
		if len(answers[i].Records) == 0 {
			t.Fatalf("item %d: verified answer has no records", i)
		}
	}
	// Out-of-domain queries error without failing the batch.
	bad := append(qs, query.NewTopK(geometry.Point{dom.Hi[0] + 1}, 1))
	answers, errs = b.QueryBatch(ctx, bad)
	if errs[len(bad)-1] == nil {
		t.Fatal("out-of-domain query answered")
	}
	if answers[len(bad)-1].Shard != wire.ShardNone {
		t.Fatalf("failed item attributed to shard %d", answers[len(bad)-1].Shard)
	}
	for i := 0; i < len(qs); i++ {
		if errs[i] != nil {
			t.Fatalf("item %d failed alongside the bad query: %v", i, errs[i])
		}
	}
}

// TestNewShardedRefusesEmptySet: a nil set and a set without trees are
// refused at construction, not at the first query.
func TestNewShardedRefusesEmptySet(t *testing.T) {
	for name, set := range map[string]*shard.Set{"nil": nil, "no trees": {}} {
		if _, err := NewSharded(set); err == nil {
			t.Errorf("%s set accepted", name)
		}
	}
}

// TestBatchCancellation: a canceled context stops a batch promptly and
// surfaces context.Canceled on the prevented items.
func TestBatchCancellation(t *testing.T) {
	_, tree, dom, _ := fixture(t, 60)
	b, err := NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := testQueries(dom, 64)
	start := time.Now()
	_, errs := b.QueryBatch(ctx, qs, WithWorkers(2))
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled batch took %v", d)
	}
	canceled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no item reports context.Canceled")
	}
}

// TestStreamEarlyBreak: breaking the stream consumer cancels the
// remaining work without deadlocking or double-yielding.
func TestStreamEarlyBreak(t *testing.T) {
	_, tree, dom, _ := fixture(t, 60)
	b, err := NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	qs := testQueries(dom, 40)
	got := 0
	for range b.QueryStream(context.Background(), qs, WithWorkers(2)) {
		got++
		if got == 3 {
			break
		}
	}
	if got != 3 {
		t.Fatalf("consumed %d items, want 3", got)
	}
}

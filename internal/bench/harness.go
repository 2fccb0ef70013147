package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/mesh"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// Harness owns the signer, the memoised fixtures and the price list
// (per-operation costs) shared by every figure.
type Harness struct {
	Cfg    Config
	signer sig.Signer

	fixtures map[fixture]*built
	// verified memoises the client-side counts per sweep point: Figs
	// 7a-7d are four views of one verification pass, paid once.
	verified     map[point][]sample
	perHashSec   float64
	perVerifySec map[sig.Scheme]float64
}

// NewHarness validates the config and prepares a harness. Structures are
// built lazily, on a figure's first request for them.
func NewHarness(cfg Config) (*Harness, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	signer, err := sig.NewSigner(cfg.Scheme, sig.Options{RSABits: cfg.RSABits})
	if err != nil {
		return nil, fmt.Errorf("bench: signer: %w", err)
	}
	return &Harness{
		Cfg:          cfg,
		signer:       signer,
		fixtures:     make(map[fixture]*built),
		verified:     make(map[point][]sample),
		perVerifySec: make(map[sig.Scheme]float64),
	}, nil
}

// fixture is the small key every figure reduces its set-up to: what
// distinguishes one build in this package from another. The zero value
// of each field is the common case — a one-signature tree over the
// configured Lines distribution.
type fixture struct {
	n    int
	dist workload.Distribution // "" = Cfg.Dist
	// dim 0 is the slope/intercept Lines workload under AffineLine;
	// d > 0 is A4's d-weight Points workload under ScalarProduct.
	dim      int
	mode     verify.Mode
	mesh     bool // the signature-mesh baseline (built.Mesh) instead of an IFMH product
	shards   int  // 0 = one tree (Result.Tree); K >= 1 = a K-shard set (Result.Set)
	quantile bool // cut shards with build.QuantileCuts instead of the default even cuts
}

// built is a fixture's product with the inputs it was built from (query
// generators need them) and the wall time of the build call alone,
// which is what Fig 5b reports. A mesh fixture holds Mesh and no Result.
type built struct {
	*build.Result
	Mesh     *mesh.Mesh
	table    record.Table
	template funcs.Template
	domain   geometry.Box
	seconds  float64
}

// build returns the fixture's product, generating its table and
// outsourcing it on first use, and times the build call alone — the
// package's one stopwatch, read by Fig 5b alone. Fixtures are memoised
// for the harness's lifetime, so figures that share a structure (the
// thirteen paper figures; the one-signature planes) share one build and
// report one build time.
func (h *Harness) build(ctx context.Context, fx fixture) (*built, error) {
	if fx.dist == "" {
		fx.dist = h.Cfg.Dist // before the lookup: one key per structure
	}
	if b, ok := h.fixtures[fx]; ok {
		return b, nil
	}
	var (
		tbl record.Table
		dom geometry.Box
		tpl funcs.Template
		err error
	)
	if fx.dim > 0 {
		tpl = funcs.ScalarProduct(fx.dim)
		tbl, dom, err = workload.Points(workload.PointsConfig{N: fx.n, Dim: fx.dim, Seed: h.Cfg.Seed, Dist: fx.dist})
	} else {
		tpl = funcs.AffineLine(0, 1)
		tbl, dom, err = workload.Lines(workload.LinesConfig{N: fx.n, Seed: h.Cfg.Seed, Dist: fx.dist, Density: h.Cfg.Density})
	}
	if err != nil {
		return nil, err
	}
	b := &built{table: tbl, template: tpl, domain: dom}
	start := time.Now()
	if fx.mesh {
		b.Mesh, err = mesh.BuildCtx(ctx, tbl, mesh.Params{Signer: h.signer, Domain: dom, Template: tpl, Workers: h.Cfg.Workers})
	} else {
		opts := []build.Option{build.WithWorkers(h.Cfg.Workers), build.WithMode(fx.mode), build.WithShuffle(h.Cfg.Seed)}
		if fx.shards > 0 {
			opts = append(opts, build.WithShards(fx.shards, 0))
		}
		if fx.quantile {
			opts = append(opts, build.WithPlanner(build.QuantileCuts))
		}
		b.Result, err = build.Outsource(ctx, build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: h.signer}, opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("outsource %+v: %w", fx, err)
	}
	b.seconds = time.Since(start).Seconds()
	h.fixtures[fx] = b
	return b, nil
}

// mixedQueries spreads every query kind uniformly across the domain,
// shard cuts included implicitly by the uniform sweep. It is the sample
// every identity column checks.
func mixedQueries(dom geometry.Box, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query.Query, 0, n)
	for len(qs) < n {
		x := geometry.Point{dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])}
		switch len(qs) % 4 {
		case 0:
			qs = append(qs, query.NewTopK(x, 1+rng.Intn(8)))
		case 1:
			qs = append(qs, query.NewBottomK(x, 1+rng.Intn(8)))
		case 2:
			qs = append(qs, query.NewRange(x, -2, 2))
		default:
			qs = append(qs, query.NewKNN(x, 1+rng.Intn(8), rng.NormFloat64()))
		}
	}
	return qs
}

// identical is the package's one identity verdict over two answer
// sources, each a QueryBatch-shaped (answers, errors) pair parallel to
// the same queries. "ok" needs
// outcome parity on every item, no verification failure on either side,
// and the same result record ids in the same order. The engine turns
// any other verdict into the figure's failure (Figure.Run).
func identical(a []backend.Answer, aerrs []error, b []backend.Answer, berrs []error) string {
	same := func(i int) bool {
		ea, eb := aerrs[i], berrs[i]
		if errors.Is(ea, verify.ErrVerification) || errors.Is(eb, verify.ErrVerification) || (ea == nil) != (eb == nil) {
			return false
		}
		if ea != nil {
			return true // refused alike
		}
		da, erra := wire.DecodeIFMH(a[i].Raw)
		db, errb := wire.DecodeIFMH(b[i].Raw)
		return erra == nil && errb == nil && slices.EqualFunc(da.Records, db.Records,
			func(x, y record.Record) bool { return x.ID == y.ID })
	}
	ok := len(a) == len(b)
	for i := 0; ok && i < len(a); i++ {
		ok = same(i)
	}
	if !ok {
		return "MISMATCH"
	}
	return "ok"
}

// identity answers Cfg.Reps mixed queries in-process on both products,
// each verified against its own published bundle, and returns the
// verdict. a must come from Outsource (its plan names the domain the
// sample is drawn from); b may be re-planned.
func (h *Harness) identity(ctx context.Context, a, b *build.Result) (string, error) {
	qs := mixedQueries(a.Plan.Domain, h.Cfg.Reps, h.Cfg.Seed)
	var answers [2][]backend.Answer
	var errs [2][]error
	for i, res := range []*build.Result{a, b} {
		be, err := inProcess(res)
		if err != nil {
			return "", err
		}
		answers[i], errs[i] = be.QueryBatch(ctx, qs, backend.WithVerify(res.Public))
	}
	return identical(answers[0], errs[0], answers[1], errs[1]), nil
}

// inProcess is the bare in-process backend over a tree or a shard set.
func inProcess(res *build.Result) (backend.Backend, error) {
	if res.Set != nil {
		return backend.NewSharded(res.Set)
	}
	return backend.NewLocal(res.Tree)
}

// PerHashSeconds measures (once) the cost of one tagged SHA-256 over
// typical node-sized input. It and PerVerifySeconds are the package's
// price list: the figures that report time (7b-7d) multiply counts by
// them.
func (h *Harness) PerHashSeconds() float64 {
	if h.perHashSec > 0 {
		return h.perHashSec
	}
	hs := hashing.New(nil)
	var a, b hashing.Digest
	const reps = 20000
	start := time.Now()
	for i := 0; i < reps; i++ {
		a = hs.Node(a, b)
	}
	h.perHashSec = time.Since(start).Seconds() / reps
	return h.perHashSec
}

// PerVerifySeconds measures (once per scheme) the cost of one signature
// verification — the paper's "decryption" cost.
func (h *Harness) PerVerifySeconds(scheme sig.Scheme) (float64, error) {
	if v, ok := h.perVerifySec[scheme]; ok {
		return v, nil
	}
	signer, err := sig.NewSigner(scheme, sig.Options{RSABits: h.Cfg.RSABits})
	if err != nil {
		return 0, err
	}
	var digest hashing.Digest
	digest[0] = 0x5a
	sg, err := signer.Sign(digest[:])
	if err != nil {
		return 0, err
	}
	ver := signer.Verifier()
	reps := 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := ver.Verify(digest[:], sg); err != nil {
			return 0, err
		}
	}
	v := time.Since(start).Seconds() / float64(reps)
	h.perVerifySec[scheme] = v
	return v, nil
}

// schemeNote heads every table's notes so readers know the crypto
// configuration behind absolute numbers.
func (h *Harness) schemeNote() string {
	scheme := string(h.Cfg.Scheme)
	if h.Cfg.Scheme == sig.RSA {
		bits := h.Cfg.RSABits
		if bits == 0 {
			bits = 2048
		}
		scheme = fmt.Sprintf("RSA-%d", bits)
	}
	return fmt.Sprintf("scheme=%s, density=%.1f subdomains/record, dist=%s, reps=%d",
		scheme, h.Cfg.Density, h.Cfg.Dist, h.Cfg.Reps)
}

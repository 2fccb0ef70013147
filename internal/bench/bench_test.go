package bench

import (
	"bytes"
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// quick is the one harness every test in the package shares, so each
// fixture is built once per test binary.
var quick *Harness

// quickHarness returns the shared QuickConfig harness. It builds with
// Workers 0 — products are byte-identical at every worker count — and
// carries fixed prices in place of the calibrations, so no test times
// an operation or generates an RSA or DSA key, and the priced figures
// (7b-7d) are as golden-pinnable as the counts they multiply. It signs
// with digestSigner in place of QuickConfig's Ed25519 key.
func quickHarness(t *testing.T) *Harness {
	t.Helper()
	if quick != nil {
		return quick
	}
	cfg := QuickConfig()
	cfg.Workers = 0
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.signer = digestSigner{}
	h.perHashSec = 250e-9
	h.perVerifySec = map[sig.Scheme]float64{sig.RSA: 30e-6, sig.DSA: 200e-6, sig.Ed25519: 50e-6}
	quick = h
	return h
}

// digestSigner is an Ed25519 stand-in for the figures, which count
// signatures and their bytes but never depend on their value. Its
// signature is the digest twice: 64 bytes, an Ed25519 signature's size,
// so every table is the one `vqbench -quick` prints with a real key,
// and a verification still fails on a wrong digest. It spares the tests
// the curve arithmetic of every signature a figure builds or checks.
type digestSigner struct{}

func (digestSigner) Scheme() sig.Scheme                 { return sig.Ed25519 }
func (digestSigner) Sign(digest []byte) ([]byte, error) { return slices.Concat(digest, digest), nil }
func (digestSigner) Verifier() sig.Verifier             { return digestSigner{} }
func (digestSigner) SignatureSize() int                 { return 64 }

func (digestSigner) Verify(digest, s []byte) error {
	if !bytes.Equal(s, slices.Concat(digest, digest)) {
		return verify.ErrBadSignature
	}
	return nil
}

// cell parses a numeric table cell ("12", "3.4", "1.20KB", "2ms"...).
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := tbl.Rows[row][col]
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", tbl.Rows[row][col], err)
	}
	return v * mult
}

// tables memoises runFig: every test reads one run of each figure on
// the shared harness. TestGoldenCSVs empties it when it ends, so a
// repeated run (-count=2) recomputes every table.
var tables = map[string]*Table{}

func runFig(t *testing.T, h *Harness, id string) *Table {
	t.Helper()
	if tbl, ok := tables[id]; ok {
		return tbl
	}
	f, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := f.Run(context.Background(), h)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	tables[id] = tbl
	return tbl
}

// TestFig5Shapes asserts the paper's data-owner claims: the mesh needs
// far more signatures than multi-signature, which needs far more than
// one-signature's single one; and the counts grow with n.
func TestFig5Shapes(t *testing.T) {
	h := quickHarness(t)
	tbl := runFig(t, h, "fig5a")
	for r := range tbl.Rows {
		mesh, one, multi := cell(t, tbl, r, 1), cell(t, tbl, r, 2), cell(t, tbl, r, 3)
		if one != 1 {
			t.Errorf("row %d: one-sig signatures = %v, want 1", r, one)
		}
		if multi <= 1 || mesh <= multi {
			t.Errorf("row %d: want mesh (%v) > multi (%v) > one (1)", r, mesh, multi)
		}
	}
	if cell(t, tbl, len(tbl.Rows)-1, 1) <= cell(t, tbl, 0, 1) {
		t.Error("mesh signature count should grow with n")
	}

	sizeTbl := runFig(t, h, "fig5c")
	for r := range sizeTbl.Rows {
		mesh, one := cell(t, sizeTbl, r, 1), cell(t, sizeTbl, r, 2)
		if mesh <= one/4 {
			t.Errorf("row %d: mesh structure (%v) implausibly small vs one-sig (%v)", r, mesh, one)
		}
	}
}

// TestFig6Shapes asserts the server claims: the mesh's linear subdomain
// scan dominates the IFMH-tree's logarithmic search, with the gap growing
// in n; one-signature costs at least as much as multi-signature.
func TestFig6Shapes(t *testing.T) {
	h := quickHarness(t)
	for _, id := range []string{"fig6a", "fig6b", "fig6c"} {
		tbl := runFig(t, h, id)
		last := len(tbl.Rows) - 1
		meshFirst, meshLast := cell(t, tbl, 0, 1), cell(t, tbl, last, 1)
		oneLast := cell(t, tbl, last, 2)
		multiLast := cell(t, tbl, last, 3)
		if meshLast <= oneLast {
			t.Errorf("%s: mesh (%v) should traverse more than one-sig (%v) at max n", id, meshLast, oneLast)
		}
		if meshLast <= meshFirst {
			t.Errorf("%s: mesh traversal should grow with n (%v -> %v)", id, meshFirst, meshLast)
		}
		if oneLast < multiLast {
			t.Errorf("%s: one-sig (%v) should cost at least multi-sig (%v)", id, oneLast, multiLast)
		}
		// IFMH growth must be much slower than the mesh's.
		oneFirst := cell(t, tbl, 0, 2)
		if oneFirst > 0 && meshFirst > 0 {
			meshGrowth := meshLast / meshFirst
			oneGrowth := oneLast / oneFirst
			if oneGrowth > meshGrowth*2 {
				t.Errorf("%s: one-sig growth (%vx) outpaces mesh growth (%vx)", id, oneGrowth, meshGrowth)
			}
		}
	}
	// 6d: all approaches grow with |q|; mesh stays the most expensive.
	tbl := runFig(t, h, "fig6d")
	last := len(tbl.Rows) - 1
	for col := 1; col <= 3; col++ {
		if cell(t, tbl, last, col) <= cell(t, tbl, 0, col) {
			t.Errorf("fig6d col %d should grow with |q|", col)
		}
	}
	if cell(t, tbl, last, 1) <= cell(t, tbl, last, 2) {
		t.Error("fig6d: mesh should remain the most expensive at max |q|")
	}
}

// TestFig7Shapes asserts the user claims: the mesh performs the fewest
// hashes (7a) but by far the most signature decryptions, making its total
// verification time the worst and the gap grow with |q| (7c/7d).
func TestFig7Shapes(t *testing.T) {
	h := quickHarness(t)
	hashes := runFig(t, h, "fig7a")
	last := len(hashes.Rows) - 1
	if cell(t, hashes, last, 1) >= cell(t, hashes, last, 2) {
		t.Error("fig7a: mesh should hash less than one-sig")
	}
	if cell(t, hashes, last, 3) > cell(t, hashes, last, 2) {
		t.Error("fig7a: multi-sig should hash no more than one-sig")
	}

	dec := runFig(t, h, "fig7c")
	// mesh/RSA decryption exceeds one-sig/RSA by roughly |q| at every
	// row, and DSA is slower than RSA verification.
	for r := range dec.Rows {
		meshRSA, meshDSA := cell(t, dec, r, 1), cell(t, dec, r, 2)
		oneRSA := cell(t, dec, r, 3)
		if meshRSA <= oneRSA*10 {
			t.Errorf("fig7c row %d: mesh RSA decryption (%v) should dwarf one-sig (%v)", r, meshRSA, oneRSA)
		}
		if meshDSA <= meshRSA {
			t.Errorf("fig7c row %d: DSA verify (%v) should cost more than RSA verify (%v)", r, meshDSA, meshRSA)
		}
	}

	total := runFig(t, h, "fig7d")
	lastT := len(total.Rows) - 1
	if cell(t, total, lastT, 1) <= cell(t, total, lastT, 2) {
		t.Error("fig7d: mesh total verification should be slower than one-sig at max |q|")
	}
}

// TestFig8Shapes asserts the communication claims: mesh VO size grows
// linearly with |q| while the IFMH VOs stay logarithmic (8a); in n, the
// mesh VO is flat while the IFMH VOs grow slowly, with one-sig >=
// multi-sig (8b).
func TestFig8Shapes(t *testing.T) {
	h := quickHarness(t)
	a := runFig(t, h, "fig8a")
	last := len(a.Rows) - 1
	meshGrowth := cell(t, a, last, 1) / cell(t, a, 0, 1)
	oneGrowth := cell(t, a, last, 2) / cell(t, a, 0, 2)
	if meshGrowth < 2 {
		t.Errorf("fig8a: mesh VO should grow ~linearly with |q| (growth %v)", meshGrowth)
	}
	if oneGrowth > meshGrowth/2 {
		t.Errorf("fig8a: one-sig VO growth (%v) should be far below mesh growth (%v)", oneGrowth, meshGrowth)
	}
	if cell(t, a, last, 1) <= cell(t, a, last, 2) {
		t.Error("fig8a: mesh VO should be the largest at max |q|")
	}

	b := runFig(t, h, "fig8b")
	lastB := len(b.Rows) - 1
	meshVar := cell(t, b, lastB, 1) / cell(t, b, 0, 1)
	if meshVar > 3 {
		t.Errorf("fig8b: mesh VO should be ~flat in n (ratio %v)", meshVar)
	}
	if cell(t, b, lastB, 2) < cell(t, b, lastB, 3) {
		t.Error("fig8b: one-sig VO should be at least multi-sig VO (it carries the IMH path)")
	}
}

// TestAblations sanity-checks the design-choice table.
func TestAblations(t *testing.T) {
	h := quickHarness(t)
	a1 := runFig(t, h, "ablationA1")
	for r := range a1.Rows {
		n, subs := cell(t, a1, r, 0), cell(t, a1, r, 1)
		nodes, literal := cell(t, a1, r, 2), cell(t, a1, r, 3)
		if literal != subs*(2*n+3) {
			t.Errorf("A1 row %d: literal FMH nodes = %v, want S*(2n+3) = %v", r, literal, subs*(2*n+3))
		}
		if nodes >= literal {
			t.Errorf("A1 row %d: persistent FMH nodes (%v) should undercut the literal layout (%v)", r, nodes, literal)
		}
		if bytes, literalBytes := cell(t, a1, r, 4), cell(t, a1, r, 5); bytes >= literalBytes {
			t.Errorf("A1 row %d: bytes (%v) should undercut the literal layout (%v)", r, bytes, literalBytes)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T",
		Columns: []string{"a", "b"},
		Notes:   []string{"note"},
	}
	tbl.AddRow("1", "2")
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") || !strings.Contains(md, "_note_") {
		t.Errorf("markdown rendering wrong:\n%s", md)
	}
	csv := tbl.CSV()
	if csv != "a,b\n1,2\n" {
		t.Errorf("csv rendering wrong: %q", csv)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	var c Config
	if err := c.validate(); err == nil {
		t.Error("empty config accepted")
	}
	c = Config{Sizes: []int{1}}
	if err := c.validate(); err == nil {
		t.Error("size 1 accepted")
	}
	// Sweeps arrive from vqbench flags: a result size below 1 would not
	// fail but silently measure random score bands under a wrong label.
	for name, mutate := range map[string]func(*Config){
		"qsizes 0":        func(c *Config) { c.QuerySizes = []int{100, 0} },
		"qsizes negative": func(c *Config) { c.QuerySizes = []int{-5} },
		"qfixed negative": func(c *Config) { c.QFixed = -1 },
		"ablation size 1": func(c *Config) { c.AblationSizes = []int{100, 1} },
		"shard count 0":   func(c *Config) { c.ShardCounts = []int{0} },
	} {
		c = QuickConfig()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	c = QuickConfig()
	if err := c.validate(); err != nil {
		t.Errorf("QuickConfig invalid: %v", err)
	}
	if c.maxSize() != 1000 {
		t.Errorf("maxSize = %d", c.maxSize())
	}
}

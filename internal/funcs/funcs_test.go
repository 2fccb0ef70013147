package funcs

import (
	"cmp"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/record"
)

func TestLinearEval(t *testing.T) {
	f := Linear{Coef: []float64{2, -1}, Bias: 3}
	if got := f.Eval(geometry.Point{1, 1}); got != 4 {
		t.Errorf("Eval = %v, want 4", got)
	}
	if f.Dim() != 2 {
		t.Errorf("Dim = %d", f.Dim())
	}
}

func TestEvalRatMatchesFloat(t *testing.T) {
	f := Linear{Coef: []float64{1.25}, Bias: -0.5}
	x := big.NewRat(3, 2)
	got, _ := f.EvalRat(x).Float64()
	want := f.Eval(geometry.Point{1.5})
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("EvalRat = %v, Eval = %v", got, want)
	}
}

func TestDiff(t *testing.T) {
	f := Linear{Coef: []float64{3, 1}, Bias: 2}
	g := Linear{Coef: []float64{1, 1}, Bias: 5}
	h := Diff(f, g)
	// f-g = 2x - 3: zero at x=1.5 for any y.
	if h.Eval(geometry.Point{1.5, 100}) != 0 {
		t.Error("Diff zero set wrong")
	}
	if h.Eval(geometry.Point{2, 0}) <= 0 || h.Eval(geometry.Point{1, 0}) >= 0 {
		t.Error("Diff sign wrong")
	}
}

func TestTemplateInterpret(t *testing.T) {
	// The paper's example: Score(w1,w2,w3) = GPA*w1 + Award*w2 + Paper*w3.
	tpl := ScalarProduct(3)
	r := record.Record{ID: 10, Attrs: []float64{3.9, 2, 5}}
	f := tpl.Interpret(0, r)
	if f.RecordID != 10 || f.Bias != 0 {
		t.Errorf("Interpret = %+v", f)
	}
	if got := f.Eval(geometry.Point{1, 1, 1}); got != 10.9 {
		t.Errorf("score = %v, want 10.9", got)
	}
}

// TestScoreIsInterpretEval is what lets the verifier score through Score:
// over random templates (1 to 4 variables, shuffled attributes, with and
// without a bias), records (wide-ranging magnitudes, signed zeros) and
// inputs, it returns the very bits Interpret(0, r).Eval(x) does, so no
// verdict — every one is a comparison of such scores — can move.
func TestScoreIsInterpretEval(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		case 1:
			return rng.NormFloat64() * 1e-300
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	for trial := 0; trial < 20000; trial++ {
		arity := 1 + rng.Intn(6)
		tpl := Template{Name: "quick", CoefAttrs: make([]int, 1+rng.Intn(4)), BiasAttr: rng.Intn(arity+1) - 1}
		for v := range tpl.CoefAttrs {
			tpl.CoefAttrs[v] = rng.Intn(arity)
		}
		r := record.Record{ID: uint64(trial), Attrs: make([]float64, arity)}
		for i := range r.Attrs {
			r.Attrs[i] = draw()
		}
		x := make(geometry.Point, tpl.Dim())
		for i := range x {
			x[i] = draw()
		}
		got, want := tpl.Score(r, x), tpl.Interpret(0, r).Eval(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("template %+v record %v at %v: Score %v (%#x), Interpret.Eval %v (%#x)",
				tpl, r.Attrs, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAffineLineTemplate(t *testing.T) {
	tpl := AffineLine(0, 1)
	r := record.Record{ID: 1, Attrs: []float64{2, 7}} // f(x) = 2x + 7
	f := tpl.Interpret(0, r)
	if got := f.Eval(geometry.Point{3}); got != 13 {
		t.Errorf("f(3) = %v, want 13", got)
	}
}

func TestTemplateValidate(t *testing.T) {
	if err := ScalarProduct(3).Validate(3); err != nil {
		t.Errorf("valid template rejected: %v", err)
	}
	if err := ScalarProduct(3).Validate(2); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if err := (Template{Name: "empty"}).Validate(3); err == nil {
		t.Error("template without variables accepted")
	}
	if err := (Template{Name: "bias", CoefAttrs: []int{0}, BiasAttr: 9}).Validate(2); err == nil {
		t.Error("out-of-range bias accepted")
	}
}

func TestInterpretTable(t *testing.T) {
	sch := record.Schema{Name: "t", Columns: []record.Column{{Name: "a"}, {Name: "b"}}}
	tbl, err := record.NewTable(sch, []record.Record{
		{ID: 5, Attrs: []float64{1, 2}},
		{ID: 6, Attrs: []float64{3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ScalarProduct(2).InterpretTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[1].Index != 1 || fs[1].RecordID != 6 {
		t.Errorf("InterpretTable = %+v", fs)
	}
	if _, err := ScalarProduct(5).InterpretTable(tbl); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestFunctionSortability validates the theorem the whole paper rests on:
// within one subdomain (no breakpoints inside), the function order is the
// same at every point.
func TestFunctionSortability(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		fs := make([]Linear, n)
		for i := range fs {
			fs[i] = Linear{Index: i, Coef: []float64{rng.NormFloat64()}, Bias: rng.NormFloat64()}
		}
		// Collect all breakpoints, pick an interval between two adjacent
		// ones, and compare orders at several interior points.
		var bps []float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				h := Diff(fs[i], fs[j])
				if h.C[0] != 0 {
					bps = append(bps, -h.B/h.C[0])
				}
			}
		}
		if len(bps) == 0 {
			continue
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		mid := bps[rng.Intn(len(bps))]
		for _, b := range bps {
			if b < mid && b > lo {
				lo = b
			}
			if b > mid && b < hi {
				hi = b
			}
		}
		// Interval strictly between mid and hi.
		if math.IsInf(hi, 1) {
			hi = mid + 10
		}
		if hi-mid < 1e-9 {
			continue
		}
		base := sortAt(fs, mid+(hi-mid)*0.5)
		for k := 1; k <= 8; k++ {
			x := mid + (hi-mid)*float64(k)/10
			got := sortAt(fs, x)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("trial %d: order differs inside subdomain at x=%v", trial, x)
				}
			}
		}
	}
}

// sortAt returns the function indices ascending by float score at x,
// ties by index.
func sortAt(fs []Linear, x float64) []int {
	perm := make([]int, len(fs))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		return cmp.Compare(fs[a].Eval(geometry.Point{x}), fs[b].Eval(geometry.Point{x}))
	})
	return perm
}

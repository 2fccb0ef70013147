package funcs

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactCmp is the reference CmpAt must reproduce: the sign of
// f(x) − g(x) in big.Rat arithmetic.
func exactCmp(f, g Linear, x float64) int {
	w := rat(x)
	return f.EvalRat(w).Cmp(g.EvalRat(w))
}

func line(c, b float64) Linear { return Linear{Coef: []float64{c}, Bias: b} }

// rat is x as an exact rational.
func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// magnitude draws a float whose magnitude is log-uniform over
// [1e-300, 1e300], with a random sign.
func magnitude(rng *rand.Rand) float64 {
	v := math.Pow(10, rng.Float64()*600-300)
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

// special draws from the values a float filter gets wrong first: signed
// zeros, subnormals, the normal-range edge and huge magnitudes.
func special(rng *rand.Rand) float64 {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-308,
		0x1p-1022, -0x1p-1022, 1, -1, 1e300, -1e300, math.MaxFloat64 / 4}
	return vals[rng.Intn(len(vals))]
}

// breakpoint returns the exact point where f and g tie, or nil when
// they are parallel.
func breakpoint(f, g Linear) *big.Rat {
	dc := new(big.Rat).Sub(rat(f.Coef[0]), rat(g.Coef[0]))
	if dc.Sign() == 0 {
		return nil
	}
	db := new(big.Rat).Sub(rat(g.Bias), rat(f.Bias))
	return db.Quo(db, dc)
}

// battery checks CmpAt against the big.Rat comparison for every pair of
// a set of lines at one witness, evaluating each line exactly once.
type battery struct {
	t           *testing.T
	cases, ties int
}

func (b *battery) all(lines []Linear, x float64) {
	b.t.Helper()
	w := rat(x)
	vals := make([]*big.Rat, len(lines))
	for i, f := range lines {
		vals[i] = f.EvalRat(w)
	}
	for i, f := range lines {
		for j, g := range lines {
			if i == j {
				continue
			}
			b.cases++
			want := vals[i].Cmp(vals[j])
			if want == 0 {
				b.ties++
			}
			if got := CmpAt(f, g, x); got != want {
				b.t.Fatalf("CmpAt(%v·x%+v, %v·x%+v) at x=%v = %d, exact %d",
					f.Coef[0], f.Bias, g.Coef[0], g.Bias, x, got, want)
			}
		}
	}
}

// TestCmpAtMatchesExact is the differential battery of the owner's 1-D
// predicate: over 10⁶ random ordered pairs and the constructed near-ties
// below, CmpAt must return exactly the big.Rat comparison's sign.
func TestCmpAtMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	b := &battery{t: t}
	// Random lines — normal, log-uniform over 1e±300 and special values —
	// at random floats, and at the float nearest the crossing of two of
	// them, where most comparisons are near-ties.
	for i := 0; i < 800; i++ {
		lines := make([]Linear, 36)
		for k := range lines {
			switch k {
			case 0:
				lines[k] = line(magnitude(rng), magnitude(rng))
			case 1:
				lines[k] = line(special(rng), special(rng))
			default:
				lines[k] = line(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		x := rng.NormFloat64() * 4
		if bp := breakpoint(lines[2], lines[3]); i%2 == 1 && bp != nil {
			x, _ = bp.Float64()
		}
		b.all(lines, x)
	}
	if b.cases < 1_000_000 {
		t.Fatalf("only %d random cases", b.cases)
	}
	// The floats at a breakpoint and ±1 ulp from it.
	for i := 0; i < 2_000; i++ {
		f, g := line(rng.NormFloat64(), rng.NormFloat64()), line(rng.NormFloat64(), rng.NormFloat64())
		if i%4 == 0 {
			f, g = line(magnitude(rng), magnitude(rng)), line(magnitude(rng), magnitude(rng))
		}
		bp := breakpoint(f, g)
		if bp == nil {
			continue
		}
		if x, _ := bp.Float64(); !math.IsInf(x, 0) {
			for _, y := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
				b.all([]Linear{f, g}, y)
			}
		}
	}
	// Pencils: lines through one point (x0, y0), up to the rounding of
	// their biases, at x0 and its neighbouring floats.
	for i := 0; i < 300; i++ {
		x0, y0 := rng.NormFloat64()*10, rng.NormFloat64()*10
		pencil := make([]Linear, 8)
		for k := range pencil {
			c := rng.NormFloat64()
			pencil[k] = line(c, y0-c*x0)
		}
		for _, y := range []float64{x0, math.Nextafter(x0, math.Inf(-1)), math.Nextafter(x0, math.Inf(1))} {
			b.all(pencil, y)
		}
	}
	// Biases that cancel: large, equal or adjacent biases under small
	// slopes.
	for i := 0; i < 2_000; i++ {
		bias := magnitude(rng)
		f := line(rng.NormFloat64()*1e-8, bias)
		g := line(rng.NormFloat64()*1e-8, math.Nextafter(bias, math.Inf(rng.Intn(2)*2-1)))
		if i%2 == 0 {
			g.Bias = bias
		}
		b.all([]Linear{f, g}, rng.NormFloat64())
	}
	// Subnormal products that nearly cancel against a bias: a product
	// below the normal range keeps only its absolute precision, and a
	// float decision there would take a wrong sign.
	const ulp = 0x1p-1074
	for i := 0; i < 4_000; i++ {
		kf, kg, x := float64(rng.Intn(1<<20)), float64(rng.Intn(1<<20)), rng.NormFloat64()
		bias := (math.Round((kf-kg)*x) + float64(rng.Intn(3)-1)) * ulp
		b.all([]Linear{line(kf*ulp, 0), line(kg*ulp, bias)}, x)
	}
	// Lines crossing exactly at a float: dyadic slopes, points and
	// heights, so every bias is exact, at the crossing and ±1 ulp.
	for i := 0; i < 2_000; i++ {
		x0, y0 := float64(rng.Intn(4096)-2048)/256, float64(rng.Intn(4096)-2048)/64
		f, g := line(float64(rng.Intn(64)-32)/8, 0), line(float64(rng.Intn(64)-32)/8, 0)
		f.Bias, g.Bias = y0-f.Coef[0]*x0, y0-g.Coef[0]*x0
		for _, y := range []float64{x0, math.Nextafter(x0, math.Inf(-1)), math.Nextafter(x0, math.Inf(1))} {
			b.all([]Linear{f, g}, y)
		}
	}
	if b.ties == 0 {
		t.Fatal("the battery constructed no exact tie")
	}
	t.Logf("%d cases, %d exact ties", b.cases, b.ties)
}

// FuzzCmpAt holds CmpAt to the big.Rat comparison on arbitrary lines
// at the floats lo and hi and at the float nearest their crossing,
// where the float filter cannot decide and the exact stage must. The
// seeds include near-ties and magnitudes from 1e-300 to 1e300.
func FuzzCmpAt(f *testing.F) {
	f.Add(1.0, 0.0, 2.0, 0.0, 0.0, 1.0)
	f.Add(1.0, -1.0, -1.0, 1.0, 1.0, 1.0)
	f.Add(1e-300, 1e300, -1e-300, 1e300, 5e-324, 0x1p-1022)
	f.Add(0.1, 0.2, 0.30000000000000004, 0.0, 1.0, 3.0)
	f.Add(-4.5, 4.5*0.26163459833063035, 3.5, -3.5*0.26163459833063035, 0.26163459833063035, 0.3)
	f.Add(3.0, -0.9, 3.0, -0.9000000000000001, 0.3, 0.30000000000000004)
	f.Add(1e300, -1e299, 1e-300, 0.0, 0.1, 1e-300)
	f.Add(1e-300, 1e-301, -1e-300, -1e-301, -0.1, 1e300)
	f.Add(0x1p499, 0x1p-400, -0x1p499, 0.0, 0x1p-899, 0x1p-500)
	f.Add(6.103515625e-05, 0.0, 0.00390625, 0.0, -2e-323, 0.0)
	f.Fuzz(func(t *testing.T, cf, bf, cg, bg, lo, hi float64) {
		for _, v := range []float64{cf, bf, cg, bg, lo, hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		fl, gl := line(cf, bf), line(cg, bg)
		xs := []float64{lo, hi}
		if bp := breakpoint(fl, gl); bp != nil {
			if x, _ := bp.Float64(); !math.IsInf(x, 0) {
				xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
			}
		}
		for _, x := range xs {
			if got, want := CmpAt(fl, gl, x), exactCmp(fl, gl, x); got != want {
				t.Fatalf("CmpAt = %d, exact %d (f=%v·x%+v, g=%v·x%+v, x=%v)", got, want, cf, bf, cg, bg, x)
			}
		}
	})
}

// TestExactStageMatchesEvalRat holds CmpAt's second stage alone to the
// big.Rat comparison on near-ties, where the float filter gives way: it
// must decide every input inside its range, and decide it exactly.
func TestExactStageMatchesEvalRat(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	scaled := func() float64 { return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(600)-300)) }
	for i := 0; i < 20_000; i++ {
		f, g := line(scaled(), scaled()), line(scaled(), scaled())
		x := scaled()
		if bp := breakpoint(f, g); bp != nil && i%4 != 0 {
			if x, _ = bp.Float64(); math.IsInf(x, 0) || math.Abs(x) >= 0x1p500 {
				continue
			}
			for k := rng.Intn(3); k > 0; k-- {
				x = math.Nextafter(x, math.Inf(rng.Intn(2)*2-1))
			}
		}
		got, ok := sign6(f.Coef[0], f.Bias, g.Coef[0], g.Bias, x)
		inRange := true
		for _, c := range []float64{f.Coef[0], g.Coef[0]} {
			if c != 0 && x != 0 && math.Abs(c*x) < 0x1p-900 {
				inRange = false
			}
		}
		if ok != inRange {
			t.Fatalf("sign6(%v·x%+v, %v·x%+v, x=%v): ok = %v, in range %v", f.Coef[0], f.Bias, g.Coef[0], g.Bias, x, ok, inRange)
		}
		if want := exactCmp(f, g, x); ok && got != want {
			t.Fatalf("sign6(%v·x%+v, %v·x%+v, x=%v) = %d, exact %d", f.Coef[0], f.Bias, g.Coef[0], g.Bias, x, got, want)
		}
	}
}

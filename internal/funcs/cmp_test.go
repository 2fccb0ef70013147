package funcs

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactCmp is the reference CmpAt must reproduce: the sign of
// f(w) − g(w) in big.Rat arithmetic.
func exactCmp(f, g Linear, at At) int {
	w := at.w
	if w == nil {
		w = rat(at.x)
	}
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

func (b *battery) all(lines []Linear, at At) {
	b.t.Helper()
	w := at.w
	if w == nil {
		w = rat(at.x)
	}
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
			if got := CmpAt(f, g, at); got != want {
				b.t.Fatalf("CmpAt(%v·w%+v, %v·w%+v) at w=%v (x=%v) = %d, exact %d",
					f.Coef[0], f.Bias, g.Coef[0], g.Bias, w, at.x, got, want)
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
	// at random witnesses: float points and rational midpoints of two
	// floats, as the sweep's witnesses are.
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
		if i%2 == 0 {
			b.all(lines, AtFloat(x))
		} else {
			m := new(big.Rat).Add(rat(x), rat(x+rng.ExpFloat64()))
			b.all(lines, NewAt(m.Quo(m, big.NewRat(2, 1))))
		}
	}
	if b.cases < 1_000_000 {
		t.Fatalf("only %d random cases", b.cases)
	}
	// The witness at a breakpoint and ±1 ulp from its float.
	for i := 0; i < 2_000; i++ {
		f, g := line(rng.NormFloat64(), rng.NormFloat64()), line(rng.NormFloat64(), rng.NormFloat64())
		if i%4 == 0 {
			f, g = line(magnitude(rng), magnitude(rng)), line(magnitude(rng), magnitude(rng))
		}
		bp := breakpoint(f, g)
		if bp == nil {
			continue
		}
		b.all([]Linear{f, g}, NewAt(bp))
		if x, _ := bp.Float64(); !math.IsInf(x, 0) {
			for _, y := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
				b.all([]Linear{f, g}, AtFloat(y))
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
			b.all(pencil, AtFloat(y))
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
		b.all([]Linear{f, g}, AtFloat(rng.NormFloat64()))
	}
	// Subnormal products that nearly cancel against a bias: a product
	// below the normal range keeps only its absolute precision, and a
	// float decision there would take a wrong sign.
	const ulp = 0x1p-1074
	for i := 0; i < 4_000; i++ {
		kf, kg, x := float64(rng.Intn(1<<20)), float64(rng.Intn(1<<20)), rng.NormFloat64()
		bias := (math.Round((kf-kg)*x) + float64(rng.Intn(3)-1)) * ulp
		b.all([]Linear{line(kf*ulp, 0), line(kg*ulp, bias)}, AtFloat(x))
	}
	if b.ties == 0 {
		t.Fatal("the battery constructed no exact tie")
	}
	t.Logf("%d cases, %d exact ties", b.cases, b.ties)
}

// FuzzCmpAt holds CmpAt to the big.Rat comparison on arbitrary lines
// at a float witness and at the exact midpoint of two floats.
func FuzzCmpAt(f *testing.F) {
	f.Add(1.0, 0.0, 2.0, 0.0, 0.0, 1.0)
	f.Add(1.0, -1.0, -1.0, 1.0, 1.0, 1.0)
	f.Add(1e-300, 1e300, -1e-300, 1e300, 5e-324, 0x1p-1022)
	f.Add(0.1, 0.2, 0.30000000000000004, 0.0, 1.0, 3.0)
	f.Fuzz(func(t *testing.T, cf, bf, cg, bg, lo, hi float64) {
		for _, v := range []float64{cf, bf, cg, bg, lo, hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		fl, gl := line(cf, bf), line(cg, bg)
		m := new(big.Rat).Add(rat(lo), rat(hi))
		for _, at := range []At{AtFloat(lo), NewAt(m.Quo(m, big.NewRat(2, 1)))} {
			if got, want := CmpAt(fl, gl, at), exactCmp(fl, gl, at); got != want {
				t.Fatalf("CmpAt = %d, exact %d (f=%v·w%+v, g=%v·w%+v, w=%v)", got, want, cf, bf, cg, bg, at.w)
			}
		}
	})
}

// Package funcs implements the paper's function view of an outsourced
// table: a utility-function template interprets every record as a linear
// math function of the query variables, and the pairwise differences of
// those functions are the hyperplanes that partition the query domain into
// sortable subdomains.
package funcs

import (
	"fmt"
	"math/big"

	"aqverify/internal/geometry"
	"aqverify/internal/linalg"
	"aqverify/internal/record"
)

// Linear is the function f(X) = Coef·X + Bias interpreted from one record.
// Index is the record's position in the table (the identity used
// throughout the verification structures); RecordID is the table key.
type Linear struct {
	Index    int
	RecordID uint64
	Coef     []float64
	Bias     float64
}

// Eval returns f(X).
func (f Linear) Eval(x geometry.Point) float64 {
	return linalg.Dot(f.Coef, []float64(x)) + f.Bias
}

// EvalRat returns f(X) in exact rational arithmetic for a rational input:
// CmpAt's last resort.
func (f Linear) EvalRat(x *big.Rat) *big.Rat {
	if len(f.Coef) != 1 {
		panic(fmt.Sprintf("funcs: EvalRat needs a univariate function, got %d variables", len(f.Coef)))
	}
	c := new(big.Rat).SetFloat64(f.Coef[0])
	b := new(big.Rat).SetFloat64(f.Bias)
	out := new(big.Rat).Mul(c, x)
	return out.Add(out, b)
}

// Dim returns the number of query variables.
func (f Linear) Dim() int { return len(f.Coef) }

// Diff returns the hyperplane f - g = 0, whose sign partitions the domain
// into the regions where f scores above or below g.
func Diff(f, g Linear) geometry.Hyperplane {
	return geometry.Hyperplane{
		C: linalg.Sub(f.Coef, g.Coef),
		B: f.Bias - g.Bias,
	}
}

// Template is a utility-function template (paper §2.1): it selects which
// record attributes become function coefficients and optionally a bias
// attribute. With the template
//
//	Score(w1,w2,w3) = GPA*w1 + Award*w2 + Paper*w3
//
// CoefAttrs is [0,1,2] (indices into Record.Attrs) and BiasAttr is -1.
type Template struct {
	// Name documents the template (it is shared out of band, like the
	// schema).
	Name string
	// CoefAttrs lists, per query variable, the record attribute index
	// providing that variable's coefficient.
	CoefAttrs []int
	// BiasAttr is the record attribute index providing the constant
	// term, or -1 for a zero bias.
	BiasAttr int
}

// ScalarProduct returns the standard template with one query variable per
// schema column and no bias: f_i(X) = r_i · X.
func ScalarProduct(arity int) Template {
	idx := make([]int, arity)
	for i := range idx {
		idx[i] = i
	}
	return Template{Name: "scalar-product", CoefAttrs: idx, BiasAttr: -1}
}

// AffineLine returns the univariate template f_i(x) = slope*x + intercept
// where slope and intercept name record attribute indices. This is the
// configuration of the paper's evaluation (linear ranking functions).
func AffineLine(slopeAttr, interceptAttr int) Template {
	return Template{Name: "affine-line", CoefAttrs: []int{slopeAttr}, BiasAttr: interceptAttr}
}

// Dim returns the number of query variables the template produces.
func (t Template) Dim() int { return len(t.CoefAttrs) }

// Validate checks the template against a schema arity.
func (t Template) Validate(arity int) error {
	if len(t.CoefAttrs) == 0 {
		return fmt.Errorf("funcs: template %q has no variables", t.Name)
	}
	for v, a := range t.CoefAttrs {
		if a < 0 || a >= arity {
			return fmt.Errorf("funcs: template %q variable %d uses attribute %d, schema arity %d",
				t.Name, v, a, arity)
		}
	}
	if t.BiasAttr != -1 && (t.BiasAttr < 0 || t.BiasAttr >= arity) {
		return fmt.Errorf("funcs: template %q bias uses attribute %d, schema arity %d",
			t.Name, t.BiasAttr, arity)
	}
	return nil
}

// Interpret converts one record into its math function under the template.
func (t Template) Interpret(index int, r record.Record) Linear {
	return t.interpret(index, r, make([]float64, len(t.CoefAttrs)))
}

// interpret is Interpret writing the coefficients into coef.
func (t Template) interpret(index int, r record.Record, coef []float64) Linear {
	for v, a := range t.CoefAttrs {
		coef[v] = r.Attrs[a]
	}
	var bias float64
	if t.BiasAttr >= 0 {
		bias = r.Attrs[t.BiasAttr]
	}
	return Linear{Index: index, RecordID: r.ID, Coef: coef, Bias: bias}
}

// Score is Interpret(0, r).Eval(x) without the Linear: the same float64
// operations in the same order, so the two agree bit for bit
// (TestScoreIsInterpretEval) — for a verifier, which scores a record once.
func (t Template) Score(r record.Record, x geometry.Point) float64 {
	var s, bias float64
	for v, a := range t.CoefAttrs {
		s += float64(r.Attrs[a] * x[v]) // no fused multiply-add, as in linalg.Dot
	}
	if t.BiasAttr >= 0 {
		bias = r.Attrs[t.BiasAttr]
	}
	return s + bias
}

// InterpretTable converts every record of a table, in table order, the
// coefficients cut from one array.
func (t Template) InterpretTable(tbl record.Table) ([]Linear, error) {
	if err := t.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	out, d := make([]Linear, tbl.Len()), len(t.CoefAttrs)
	coef := make([]float64, d*tbl.Len()) // every record's coefficients in one slab
	for i, r := range tbl.Records {
		out[i] = t.interpret(i, r, coef[i*d:(i+1)*d:(i+1)*d])
	}
	return out, nil
}

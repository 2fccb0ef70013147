package workload

import (
	"math/rand"

	"aqverify/internal/geometry"
	"aqverify/internal/record"
)

// Applicants synthesizes the paper's motivating table (Fig 1): graduate
// applicants with GPA, award count and paper count. Attribute layout:
//
//	0: GPA    in [2.0, 4.0]
//	1: Awards in {0..10}
//	2: Papers in {0..20}
//	3: Awards (derived slope)            = Awards
//	4: Base   (derived intercept)        = GPA + 0.5*Papers
//
// Attributes 3-4 support the scalable single-free-weight template
// Score(w) = GPA + Awards*w + 0.5*Papers — an affine line in w — while
// attributes 0-2 support the full 3-weight scalar-product template on
// small instances. Payload carries the applicant's name.
func Applicants(n int, seed int64) (record.Table, geometry.Box, error) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		gpa := 2 + float64(unit(rng)*2)
		awards := float64(rng.Intn(11))
		papers := float64(rng.Intn(21))
		recs[i] = record.Record{
			ID: uint64(i + 1),
			Attrs: []float64{
				gpa, awards, papers,
				awards, gpa + float64(0.5*papers),
			},
			Payload: []byte(applicantName(rng)),
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name: "applicants",
		Columns: []record.Column{
			{Name: "gpa", Description: "grade point average"},
			{Name: "awards", Description: "number of awards"},
			{Name: "papers", Description: "number of papers"},
			{Name: "w_slope", Description: "derived: awards (slope of the one-weight score)"},
			{Name: "w_base", Description: "derived: gpa + 0.5*papers (intercept)"},
		},
	}, recs)
	if err != nil {
		return record.Table{}, geometry.Box{}, err
	}
	// The admissions committee weighs awards between 0 and 3 GPA points
	// apiece.
	dom, err := geometry.NewBox([]float64{0}, []float64{3})
	return tbl, dom, err
}

var firstNames = []string{"Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald", "Leslie", "Frances", "John", "Radia"}
var lastNames = []string{"Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov", "Knuth", "Lamport", "Allen", "Backus", "Perlman"}

func applicantName(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// RiskPatients synthesizes a diabetes-risk screening table (the paper's
// intro cites risk-score queries as a key application). Attribute layout:
//
//	0: metabolic burden (age/BMI composite, roughly 0-10)
//	1: glucose factor   (fasting glucose composite, roughly 0-10)
//
// Under the 2-weight scalar-product template, a clinic scores patients as
// Risk(w1,w2) = metabolic*w1 + glucose*w2 and asks range queries ("all
// patients in the elevated band") or KNN queries ("the k patients nearest
// a case profile").
func RiskPatients(n int, seed int64) (record.Table, geometry.Box, error) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		// Two loose clusters: a healthy majority and an elevated tail.
		var metabolic, glucose float64
		if rng.Float64() < 0.7 {
			metabolic = clampRange(float64(rng.NormFloat64()*1.2)+3, 0, 10)
			glucose = clampRange(float64(rng.NormFloat64()*1.0)+3, 0, 10)
		} else {
			metabolic = clampRange(float64(rng.NormFloat64()*1.5)+7, 0, 10)
			glucose = clampRange(float64(rng.NormFloat64()*1.5)+7, 0, 10)
		}
		recs[i] = record.Record{
			ID:    uint64(i + 1),
			Attrs: []float64{metabolic, glucose},
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name: "patients",
		Columns: []record.Column{
			{Name: "metabolic", Description: "age/BMI composite factor"},
			{Name: "glucose", Description: "fasting glucose composite factor"},
		},
	}, recs)
	if err != nil {
		return record.Table{}, geometry.Box{}, err
	}
	// Guideline weights range over [0.2, 2] per factor.
	dom, err := geometry.NewBox([]float64{0.2, 0.2}, []float64{2, 2})
	return tbl, dom, err
}

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Package workload generates the synthetic databases, query domains and
// query workloads used by the test suite, the examples and the benchmark
// harness.
//
// The paper evaluates on linear ranking functions over databases of
// 1,000-10,000 records but does not publish its data. We follow the
// standard generators of the top-k literature (independent, correlated,
// anti-correlated, clustered attributes) and add one reproducibility
// device the paper leaves implicit: the owner-specified query domain is
// sized so that the expected number of in-domain subdomains is a fixed
// multiple of n (the Density knob). Without a bounded domain the
// arrangement of n random lines has Θ(n²) subdomains, which no evaluation
// at n = 10,000 — the paper's included — can materialize; the bounded
// window preserves every compared structure's relative behaviour while
// keeping builds feasible (see DESIGN.md §3).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"aqverify/internal/geometry"
	"aqverify/internal/record"
)

// Distribution selects an attribute generator.
type Distribution string

const (
	// Uniform draws attributes independently and uniformly.
	Uniform Distribution = "uniform"
	// Gaussian draws attributes independently from normal distributions.
	Gaussian Distribution = "gaussian"
	// Correlated draws positively correlated slope/intercept pairs.
	Correlated Distribution = "correlated"
	// AntiCorrelated draws negatively correlated pairs (the adversarial
	// case of the top-k literature: many rank crossings).
	AntiCorrelated Distribution = "anticorrelated"
	// Clustered draws attributes around a few random cluster centers.
	Clustered Distribution = "clustered"
)

// Distributions lists every supported distribution.
func Distributions() []Distribution {
	return []Distribution{Uniform, Gaussian, Correlated, AntiCorrelated, Clustered}
}

// LinesConfig configures the univariate-line generator, the workload of
// the paper's evaluation (records interpreted as f_i(x) = slope_i * x +
// intercept_i).
type LinesConfig struct {
	N    int
	Seed int64
	Dist Distribution
	// Density is the target ratio of subdomains to records (c in
	// DESIGN.md). Zero means DefaultDensity.
	Density float64
}

// DefaultDensity keeps roughly three subdomains per record.
const DefaultDensity = 3.0

// LineSchema is the schema of generated line tables.
func LineSchema() record.Schema {
	return record.Schema{
		Name: "lines",
		Columns: []record.Column{
			{Name: "slope", Description: "coefficient of the query weight"},
			{Name: "intercept", Description: "constant term"},
		},
	}
}

// Lines generates a line table plus a query domain sized for the target
// subdomain density.
func Lines(cfg LinesConfig) (record.Table, geometry.Box, error) {
	if cfg.N < 1 {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: need at least one record")
	}
	if cfg.Dist == "" {
		cfg.Dist = Gaussian
	}
	if cfg.Density == 0 {
		cfg.Density = DefaultDensity
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := make([]record.Record, cfg.N)
	for i := range recs {
		slope, intercept := drawLine(rng, cfg.Dist)
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{slope, intercept}}
	}
	tbl, err := record.NewTable(LineSchema(), recs)
	if err != nil {
		return record.Table{}, geometry.Box{}, err
	}
	dom, err := densityDomain(tbl, cfg.Density, rng)
	if err != nil {
		return record.Table{}, geometry.Box{}, err
	}
	return tbl, dom, nil
}

// unit is rng.Float64() explicitly rounded, so that no CPU fuses its
// inner scaling into the caller's add.
func unit(rng *rand.Rand) float64 { return float64(rng.Float64()) }

// drawLine samples one (slope, intercept) pair.
func drawLine(rng *rand.Rand, dist Distribution) (float64, float64) {
	switch dist {
	case Uniform:
		return float64(unit(rng)*2) - 1, float64(unit(rng)*10) - 5
	case Gaussian:
		return rng.NormFloat64(), rng.NormFloat64() * 3
	case Correlated:
		s := rng.NormFloat64()
		return s, float64(2*s) + float64(rng.NormFloat64()*0.5)
	case AntiCorrelated:
		s := rng.NormFloat64()
		return s, float64(-2*s) + float64(rng.NormFloat64()*0.5)
	case Clustered:
		// Eight fixed-shape clusters whose centers depend on the rng.
		cx := rng.Intn(8)
		baseS := float64(math.Sin(float64(cx)*2.39996) * 2) // deterministic spread
		baseI := float64(math.Cos(float64(cx)*2.39996) * 6)
		return baseS + float64(rng.NormFloat64()*0.15), baseI + float64(rng.NormFloat64()*0.4)
	default:
		return rng.NormFloat64(), rng.NormFloat64() * 3
	}
}

// densityDomain picks a symmetric window [-w, w] around the median
// breakpoint location such that the expected number of in-window
// breakpoints is Density * n. It estimates the breakpoint distribution
// from a pair sample rather than enumerating all O(n²) pairs.
func densityDomain(tbl record.Table, density float64, rng *rand.Rand) (geometry.Box, error) {
	n := tbl.Len()
	if n < 2 {
		return geometry.NewBox([]float64{-1}, []float64{1})
	}
	totalPairs := float64(n) * float64(n-1) / 2
	targetFrac := density * float64(n) / totalPairs
	if targetFrac > 1 {
		targetFrac = 1
	}

	// Size the sample so the target quantile index lands at >= ~150
	// samples; a fixed sample would make the width estimate noisy for
	// large n, where the target fraction is tiny.
	sampleSize := 20000
	if targetFrac > 0 {
		if need := int(150 / targetFrac); need > sampleSize {
			sampleSize = need
		}
	}
	if sampleSize > 500000 {
		sampleSize = 500000
	}
	if n*(n-1)/2 < sampleSize {
		sampleSize = n * (n - 1) / 2
	}
	bps := make([]float64, 0, sampleSize)
	for len(bps) < sampleSize {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		ri, rj := tbl.Records[i], tbl.Records[j]
		dc := ri.Attrs[0] - rj.Attrs[0]
		if dc == 0 {
			continue
		}
		t := (rj.Attrs[1] - ri.Attrs[1]) / dc
		if math.IsNaN(t) || math.IsInf(t, 0) {
			continue
		}
		bps = append(bps, t)
	}
	sort.Float64s(bps)
	center := bps[len(bps)/2]
	// Width = the |t - center| quantile at targetFrac.
	devs := make([]float64, len(bps))
	for i, t := range bps {
		devs[i] = math.Abs(t - center)
	}
	sort.Float64s(devs)
	idx := int(targetFrac * float64(len(devs)))
	if idx >= len(devs) {
		idx = len(devs) - 1
	}
	w := devs[idx]
	if w <= 0 {
		w = 1e-3
	}
	return geometry.NewBox([]float64{center - w}, []float64{center + w})
}

// PointsConfig configures the multivariate generator for scalar-product
// databases (records interpreted as f_i(X) = r_i · X).
type PointsConfig struct {
	N    int
	Dim  int
	Seed int64
	Dist Distribution
}

// Points generates a d-attribute table with values in (0, 1] and the unit
// query domain [0.05, 1]^d (bounded away from the origin, where all
// scalar-product functions tie).
func Points(cfg PointsConfig) (record.Table, geometry.Box, error) {
	if cfg.N < 1 || cfg.Dim < 1 {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: need n >= 1 and dim >= 1")
	}
	if cfg.Dist == "" {
		cfg.Dist = Uniform
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cols := make([]record.Column, cfg.Dim)
	for i := range cols {
		cols[i] = record.Column{Name: fmt.Sprintf("a%d", i)}
	}
	recs := make([]record.Record, cfg.N)
	for i := range recs {
		attrs := make([]float64, cfg.Dim)
		switch cfg.Dist {
		case Correlated:
			base := unit(rng)
			for d := range attrs {
				attrs[d] = clamp01(base + float64(rng.NormFloat64()*0.1))
			}
		case AntiCorrelated:
			base := unit(rng)
			for d := range attrs {
				if d%2 == 0 {
					attrs[d] = clamp01(base + float64(rng.NormFloat64()*0.05))
				} else {
					attrs[d] = clamp01(1 - base + float64(rng.NormFloat64()*0.05))
				}
			}
		case Gaussian:
			for d := range attrs {
				attrs[d] = clamp01(0.5 + float64(rng.NormFloat64()*0.15))
			}
		default:
			for d := range attrs {
				attrs[d] = clamp01(rng.Float64())
			}
		}
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: attrs}
	}
	tbl, err := record.NewTable(record.Schema{Name: "points", Columns: cols}, recs)
	if err != nil {
		return record.Table{}, geometry.Box{}, err
	}
	lo := make([]float64, cfg.Dim)
	hi := make([]float64, cfg.Dim)
	for d := range lo {
		lo[d] = 0.05
		hi[d] = 1
	}
	dom, err := geometry.NewBox(lo, hi)
	return tbl, dom, err
}

func clamp01(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	if v > 1 {
		return 1
	}
	return v
}

package bench

import (
	"fmt"
	"slices"

	"aqverify/internal/sig"
	"aqverify/internal/workload"
)

// Config controls the sweeps. The zero value is not valid; start from
// DefaultConfig or QuickConfig.
type Config struct {
	// Sizes is the database-size sweep (the paper uses 1,000-10,000).
	Sizes []int
	// QuerySizes is the |q| sweep for Figs 6d, 7 and 8a (paper:
	// 1,000-10,000 on n = 10,000). Values are clamped to the largest
	// database size.
	QuerySizes []int
	// QFixed is the result size for Fig 8b (paper: 100).
	QFixed int
	// AblationSizes is the n sweep of ablation A1 and of the sharding,
	// planner and mutation figures.
	AblationSizes []int
	// Scheme is the signature algorithm used in builds and priced by Fig
	// 7d's total verification time (the paper's default is RSA).
	Scheme sig.Scheme
	// RSABits sizes RSA keys (0 = 2048). The paper reports 640-byte RSA
	// signatures; we use real moduli and report actual sizes.
	RSABits int
	// Density is the target subdomains-per-record ratio of the workload
	// (see workload.Lines); zero means workload.DefaultDensity.
	Density float64
	// Dist selects the attribute distribution.
	Dist workload.Distribution
	// Seed makes runs reproducible.
	Seed int64
	// Reps is the number of queries averaged per data point.
	Reps int
	// Workers sizes the construction worker pool for every build (see
	// core.Params.Workers). Products are byte-identical at every count,
	// so only Fig 5b's build timer reads it. Zero means one per CPU; 1 —
	// the DefaultConfig/QuickConfig value — times the serial paths, which
	// is what the paper's single-threaded Fig 5b numbers correspond to.
	Workers int
	// ShardCounts is the domain-shard sweep of the sharding figures
	// (shardS1, planQ1): one sharded build per K, over AblationSizes.
	ShardCounts []int
}

// DefaultConfig approximates the paper's scale. The full sweep builds
// signature meshes up to n = 10,000, which signs ~10⁵ digests; RSA-1024
// keeps that in whole-run minutes (noted in every table).
func DefaultConfig() Config {
	return Config{
		Sizes:         []int{1000, 2000, 4000, 6000, 8000, 10000},
		QuerySizes:    []int{1000, 2000, 4000, 6000, 8000, 10000},
		QFixed:        100,
		AblationSizes: []int{250, 500, 1000, 2000},
		Scheme:        sig.RSA,
		RSABits:       1024,
		Density:       workload.DefaultDensity,
		Dist:          workload.Gaussian,
		Seed:          1,
		Reps:          20,
		Workers:       1,
	}
}

// QuickConfig is a scaled-down sweep for tests and testing.B benchmarks:
// same shapes, seconds not minutes.
func QuickConfig() Config {
	return Config{
		Sizes:         []int{250, 500, 1000},
		QuerySizes:    []int{100, 250, 500, 1000},
		QFixed:        50,
		AblationSizes: []int{100, 250, 500},
		Scheme:        sig.Ed25519,
		Density:       workload.DefaultDensity,
		Dist:          workload.Gaussian,
		Seed:          1,
		Reps:          8,
		Workers:       1,
	}
}

// validate normalizes and checks a config. The sweeps arrive from the
// command line: a size below 2 builds nothing, and a result size below 1
// is not "no results" but workload.Ranges' switch to random score bands,
// which would print rows labelled with a |q| they do not measure.
func (c *Config) validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("bench: Sizes must be non-empty")
	}
	for _, n := range slices.Concat(c.Sizes, c.AblationSizes) {
		if n < 2 {
			return fmt.Errorf("bench: database size %d too small", n)
		}
	}
	for _, q := range c.QuerySizes {
		if q < 1 {
			return fmt.Errorf("bench: result size %d must be positive", q)
		}
	}
	if c.QFixed < 0 { // 0 is "unset" and defaults below
		return fmt.Errorf("bench: result size %d must be positive", c.QFixed)
	}
	if c.Scheme == "" {
		c.Scheme = sig.RSA
	}
	if c.Density == 0 {
		c.Density = workload.DefaultDensity
	}
	if c.Dist == "" {
		c.Dist = workload.Gaussian
	}
	if c.Reps <= 0 {
		c.Reps = 10
	}
	if c.QFixed == 0 {
		c.QFixed = 100
	}
	if len(c.QuerySizes) == 0 {
		c.QuerySizes = c.Sizes
	}
	if len(c.AblationSizes) == 0 {
		c.AblationSizes = []int{250, 500, 1000}
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4, 8}
	}
	for _, k := range c.ShardCounts {
		if k < 1 {
			return fmt.Errorf("bench: shard count %d must be positive", k)
		}
	}
	return nil
}

// maxSize returns the largest database size in the sweep.
func (c *Config) maxSize() int { return slices.Max(c.Sizes) }

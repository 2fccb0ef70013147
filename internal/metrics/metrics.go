// Package metrics provides lightweight operation counters used to
// instrument the verification data structures.
//
// The paper's evaluation (Figs 5-8) reports operation counts — hash
// invocations, signature creations and verifications, tree nodes or mesh
// cells traversed — alongside wall-clock time and byte sizes. A Counter is
// threaded explicitly through the code paths that need instrumentation; no
// global state is used so concurrent benchmarks do not interfere. The
// package is the Counter alone, so the verifier that takes one compiles
// nothing else; the /metrics text exposition is package transport's.
package metrics

import "fmt"

// Counter accumulates operation counts for one measured activity (for
// example, building a tree, processing one query, or verifying one
// result). The zero value is ready to use. A nil *Counter is legal
// everywhere and records nothing, so hot paths can skip instrumentation.
type Counter struct {
	// Hashes is the number of one-way hash invocations.
	Hashes uint64
	// HashBytes is the total number of bytes fed to the hash function.
	HashBytes uint64
	// SigSigns is the number of signature creations.
	SigSigns uint64
	// SigVerifies is the number of signature verifications
	// ("decryptions" in the paper's terminology).
	SigVerifies uint64
	// NodesVisited counts tree nodes traversed (IMH + FMH nodes for the
	// IFMH-tree approaches).
	NodesVisited uint64
	// CellsVisited counts mesh cells scanned (signature mesh baseline).
	CellsVisited uint64
	// Comparisons counts score comparisons during searches.
	Comparisons uint64
	// Bytes accumulates wire bytes (verification object sizes).
	Bytes uint64
}

// AddHash records n hash invocations over total b input bytes.
func (c *Counter) AddHash(n, b uint64) {
	if c == nil {
		return
	}
	c.Hashes += n
	c.HashBytes += b
}

// AddSign records n signature creations.
func (c *Counter) AddSign(n uint64) {
	if c == nil {
		return
	}
	c.SigSigns += n
}

// AddVerify records n signature verifications.
func (c *Counter) AddVerify(n uint64) {
	if c == nil {
		return
	}
	c.SigVerifies += n
}

// AddNodes records n tree nodes traversed.
func (c *Counter) AddNodes(n uint64) {
	if c == nil {
		return
	}
	c.NodesVisited += n
}

// AddCells records n mesh cells scanned.
func (c *Counter) AddCells(n uint64) {
	if c == nil {
		return
	}
	c.CellsVisited += n
}

// AddComparisons records n score comparisons.
func (c *Counter) AddComparisons(n uint64) {
	if c == nil {
		return
	}
	c.Comparisons += n
}

// AddBytes records n wire bytes.
func (c *Counter) AddBytes(n uint64) {
	if c == nil {
		return
	}
	c.Bytes += n
}

// Traversed returns the combined structure-traversal count: tree nodes for
// the IFMH approaches plus cells for the mesh. This is the metric plotted
// in the paper's Fig 6.
func (c *Counter) Traversed() uint64 {
	if c == nil {
		return 0
	}
	return c.NodesVisited + c.CellsVisited
}

// Add accumulates other into c field by field.
func (c *Counter) Add(other Counter) {
	if c == nil {
		return
	}
	c.Hashes += other.Hashes
	c.HashBytes += other.HashBytes
	c.SigSigns += other.SigSigns
	c.SigVerifies += other.SigVerifies
	c.NodesVisited += other.NodesVisited
	c.CellsVisited += other.CellsVisited
	c.Comparisons += other.Comparisons
	c.Bytes += other.Bytes
}

// Snapshot returns a copy of the current counts. A nil receiver snapshots
// to the zero Counter.
func (c *Counter) Snapshot() Counter {
	if c == nil {
		return Counter{}
	}
	return *c
}

// String renders the non-zero fields compactly, for logs and demos.
func (c *Counter) String() string {
	s := c.Snapshot()
	out := ""
	app := func(name string, v uint64) {
		if v == 0 {
			return
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", name, v)
	}
	app("hashes", s.Hashes)
	app("hashBytes", s.HashBytes)
	app("signs", s.SigSigns)
	app("verifies", s.SigVerifies)
	app("nodes", s.NodesVisited)
	app("cells", s.CellsVisited)
	app("cmps", s.Comparisons)
	app("bytes", s.Bytes)
	if out == "" {
		return "(empty)"
	}
	return out
}

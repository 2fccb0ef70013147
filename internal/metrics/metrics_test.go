package metrics

import (
	"strings"
	"testing"
)

func TestNilCounterIsSafe(t *testing.T) {
	var c *Counter
	c.AddHash(1, 2)
	c.AddSign(1)
	c.AddVerify(1)
	c.AddNodes(1)
	c.AddCells(1)
	c.AddComparisons(1)
	c.AddBytes(1)
	c.Add(Counter{Hashes: 5})
	if c.Traversed() != 0 {
		t.Error("nil counter should report 0")
	}
	if s := c.Snapshot(); s != (Counter{}) {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

func TestCounterAccumulation(t *testing.T) {
	var c Counter
	c.AddHash(3, 100)
	c.AddSign(2)
	c.AddVerify(4)
	c.AddNodes(7)
	c.AddCells(5)
	c.AddBytes(64)
	if c.Hashes != 3 || c.HashBytes != 100 || c.SigSigns != 2 || c.SigVerifies != 4 {
		t.Errorf("counts wrong: %+v", c)
	}
	if c.Traversed() != 12 {
		t.Errorf("Traversed = %d, want 12", c.Traversed())
	}
}

func TestAdd(t *testing.T) {
	var a, b Counter
	a.AddHash(1, 10)
	b.AddSign(2)
	a.Add(b.Snapshot())
	if a.SigSigns != 2 || a.Hashes != 1 {
		t.Errorf("Add = %+v", a)
	}
}

func TestString(t *testing.T) {
	var c Counter
	if got := c.String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
	c.AddHash(2, 10)
	c.AddVerify(1)
	s := c.String()
	if !strings.Contains(s, "hashes=2") || !strings.Contains(s, "verifies=1") {
		t.Errorf("String = %q", s)
	}
}

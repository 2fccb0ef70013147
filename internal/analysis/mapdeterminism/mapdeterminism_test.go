package mapdeterminism_test

import (
	"testing"

	"aqverify/internal/analysis/analysistest"
	"aqverify/internal/analysis/mapdeterminism"
)

// TestSeededViolations pins the diagnostics the in-scope fixture must
// produce: a silently-dead analyzer fails here, not in review.
func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, mapdeterminism.Analyzer, "core", 2)
}

// TestCleanFixture proves zero false positives on idiomatic build-plane
// code (sorted-key iteration, slice ranges).
func TestCleanFixture(t *testing.T) {
	analysistest.Run(t, mapdeterminism.Analyzer, "itree", 0)
}

// TestOutOfScope proves the package scoping: map ranges outside the
// build plane are legal.
func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, mapdeterminism.Analyzer, "outofscope", 0)
}

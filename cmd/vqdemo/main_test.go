package main

import (
	"strings"
	"testing"
)

// TestUnknownModeRefused: a mistyped -mode is refused by name before
// anything is built, never demonstrated as the one-signature scheme.
func TestUnknownModeRefused(t *testing.T) {
	err := run([]string{"-n", "10", "-mode", "mulit"})
	if err == nil || !strings.Contains(err.Error(), `unknown mode "mulit" (want one or multi)`) {
		t.Fatalf("vqdemo -mode mulit: err %v, want the bad value named", err)
	}
}

package transport

import (
	"strings"
	"testing"
)

// TestPromRoundTrip pins the writer's line shapes through the parser:
// everything the writer emits must come back with the same families,
// types, labels and values.
func TestPromRoundTrip(t *testing.T) {
	var sb strings.Builder
	p := NewProm(&sb)
	p.Family("aqv_test_total", "counter", "A counter with\nan awkward help line \\ backslash.")
	p.Int("aqv_test_total", nil, 42)
	p.Family("aqv_test_gauge", "gauge", "Labeled gauge.")
	p.Sample("aqv_test_gauge", []Label{{"shard", "0"}, {"url", `http://x/"q"`}}, 1.5)
	p.Sample("aqv_test_gauge", []Label{{"shard", "1"}, {"url", "plain"}}, -2)
	p.Family("aqv_test_seconds", "histogram", "Latency histogram.")
	p.Int("aqv_test_seconds_bucket", []Label{{"le", "0.005"}}, 3)
	p.Int("aqv_test_seconds_bucket", []Label{{"le", "+Inf"}}, 7)
	p.Sample("aqv_test_seconds_sum", nil, 0.123)
	p.Int("aqv_test_seconds_count", nil, 7)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	fams, err := ParseProm(sb.String())
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, sb.String())
	}
	if got := fams["aqv_test_total"]; got.Type != "counter" || len(got.Samples) != 1 || got.Samples[0].Value != 42 {
		t.Errorf("counter family mismatch: %+v", got)
	}
	g := fams["aqv_test_gauge"]
	if g.Type != "gauge" || len(g.Samples) != 2 {
		t.Fatalf("gauge family mismatch: %+v", g)
	}
	if v, ok := g.Value(Label{"url", `http://x/"q"`}, Label{"shard", "0"}); !ok || v != 1.5 {
		t.Errorf("labeled lookup (escaped value, reordered labels) = %v, %v; want 1.5, true", v, ok)
	}
	if v, ok := g.Value(Label{"shard", "1"}, Label{"url", "plain"}); !ok || v != -2 {
		t.Errorf("second series = %v, %v; want -2, true", v, ok)
	}
	h := fams["aqv_test_seconds"]
	if h.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", fams)
	}
	// _bucket/_sum/_count all attribute to the base family.
	if len(h.Samples) != 4 {
		t.Errorf("histogram series count = %d, want 4 (%+v)", len(h.Samples), h.Samples)
	}
	if v, ok := h.Value(Label{"le", "+Inf"}); !ok || v != 7 {
		t.Errorf("+Inf bucket = %v, %v; want 7, true", v, ok)
	}
}

// TestParsePromStrict pins the parser's refusals: a sample without a
// declared family and malformed lines are errors, not skips.
func TestParsePromStrict(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"undeclared family", "orphan_total 1\n"},
		{"undeclared histogram child", "# HELP x_bucket h\n# TYPE x_bucket counter\ny_bucket{le=\"1\"} 2\n"},
		{"no value", "# TYPE a counter\na\n"},
		{"bad value", "# TYPE a counter\na one\n"},
		{"unterminated labels", "# TYPE a counter\na{x=\"1\" 2\n"},
		{"malformed TYPE", "# TYPE a\n"},
	} {
		if _, err := ParseProm(tc.text); err == nil {
			t.Errorf("%s: ParseProm accepted %q", tc.name, tc.text)
		}
	}
	// Free-form comments and blank lines are fine.
	fams, err := ParseProm("\n# just a comment\n# TYPE ok gauge\nok 1\n\n")
	if err != nil {
		t.Fatalf("benign exposition refused: %v", err)
	}
	if v, ok := fams["ok"].Value(); !ok || v != 1 {
		t.Errorf("ok = %v, %v; want 1, true", v, ok)
	}
}

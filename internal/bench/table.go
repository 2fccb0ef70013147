package bench

import (
	"fmt"
	"strings"
)

// Table is one regenerated figure: columns of series values per sweep
// point, mirroring the paper's plot.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one sweep point. Values are formatted by the caller.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ",") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// fmtInt renders an integer cell.
func fmtInt(v int) string { return fmt.Sprintf("%d", v) }

// fmtF renders a float cell with sensible precision.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001:
		return fmt.Sprintf("%.3g", v)
	case v < 10:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// fmtBytes renders a byte count with a unit.
func fmtBytes(v int) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"aqverify/internal/geometry"
	"aqverify/internal/record"
)

// The CSV dataset format cmd/vqgen writes (-o) and reads back (-data):
//
//	# schema=<name> domain_lo=[a b ...] domain_hi=[c d ...]
//	id,<col1>,...,<colK>,payload
//	1,0.5,...,3.2,some payload
//
// The comment line carries the owner-specified query domain; the payload
// column is free text with commas replaced by semicolons on write.

// WriteCSV writes a table and its query domain in the dataset format.
func WriteCSV(w io.Writer, tbl record.Table, dom geometry.Box) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# schema=%s domain_lo=%v domain_hi=%v\n", tbl.Schema.Name, dom.Lo, dom.Hi)
	cols := make([]string, 0, 2+tbl.Schema.Arity())
	cols = append(cols, "id")
	for _, c := range tbl.Schema.Columns {
		cols = append(cols, c.Name)
	}
	cols = append(cols, "payload")
	fmt.Fprintln(bw, strings.Join(cols, ","))
	for _, r := range tbl.Records {
		fields := make([]string, 0, len(cols))
		fields = append(fields, strconv.FormatUint(r.ID, 10))
		for _, a := range r.Attrs {
			fields = append(fields, strconv.FormatFloat(a, 'g', -1, 64))
		}
		fields = append(fields, strings.ReplaceAll(string(r.Payload), ",", ";"))
		fmt.Fprintln(bw, strings.Join(fields, ","))
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV, returning the table and
// the owner's query domain.
func ReadCSV(r io.Reader) (record.Table, geometry.Box, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	fail := func(format string, args ...any) (record.Table, geometry.Box, error) {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: csv: %s", fmt.Sprintf(format, args...))
	}

	if !sc.Scan() {
		return fail("missing header comment")
	}
	name, lo, hi, err := parseHeaderComment(sc.Text())
	if err != nil {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: csv: %w", err)
	}
	dom, err := geometry.NewBox(lo, hi)
	if err != nil {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: csv: domain: %w", err)
	}

	if !sc.Scan() {
		return fail("missing column header")
	}
	cols := strings.Split(sc.Text(), ",")
	if len(cols) < 3 || cols[0] != "id" || cols[len(cols)-1] != "payload" {
		return fail("column header must be id,<attrs...>,payload; got %q", sc.Text())
	}
	arity := len(cols) - 2
	schema := record.Schema{Name: name}
	for _, c := range cols[1 : len(cols)-1] {
		schema.Columns = append(schema.Columns, record.Column{Name: c})
	}

	var recs []record.Record
	line := 2
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != arity+2 {
			return fail("line %d has %d fields, want %d", line, len(fields), arity+2)
		}
		id, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return fail("line %d: id: %v", line, err)
		}
		attrs := make([]float64, arity)
		for i := 0; i < arity; i++ {
			attrs[i], err = strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return fail("line %d: attribute %q: %v", line, cols[i+1], err)
			}
		}
		rec := record.Record{ID: id, Attrs: attrs}
		if p := fields[len(fields)-1]; p != "" {
			rec.Payload = []byte(p)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: csv: %w", err)
	}
	tbl, err := record.NewTable(schema, recs)
	if err != nil {
		return record.Table{}, geometry.Box{}, fmt.Errorf("workload: csv: %w", err)
	}
	return tbl, dom, nil
}

// parseHeaderComment parses "# schema=NAME domain_lo=[...] domain_hi=[...]".
func parseHeaderComment(s string) (name string, lo, hi []float64, err error) {
	if !strings.HasPrefix(s, "#") {
		return "", nil, nil, fmt.Errorf("first line must be the # header comment, got %q", s)
	}
	rest := strings.TrimSpace(strings.TrimPrefix(s, "#"))
	for _, field := range strings.Fields(replaceBracketSpaces(rest)) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		switch k {
		case "schema":
			name = v
		case "domain_lo":
			lo, err = parseFloatList(v)
		case "domain_hi":
			hi, err = parseFloatList(v)
		}
		if err != nil {
			return "", nil, nil, fmt.Errorf("header %s: %w", k, err)
		}
	}
	if name == "" || lo == nil || hi == nil {
		return "", nil, nil, fmt.Errorf("header missing schema/domain_lo/domain_hi: %q", s)
	}
	return name, lo, hi, nil
}

// replaceBracketSpaces rewrites "[a b c]" to "[a|b|c]" so Fields keeps
// each key=value together.
func replaceBracketSpaces(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ' ':
			if depth > 0 {
				b.WriteRune('|')
				continue
			}
		}
		b.WriteRune(r)
	}
	return b.String()
}

// parseFloatList parses "[a|b|c]" produced above.
func parseFloatList(s string) ([]float64, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(s, "]"), "[")
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, "|")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

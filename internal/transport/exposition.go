package transport

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the hand-rolled Prometheus text exposition (version
// 0.0.4) the /metrics endpoints are written with, plus the matching
// parser the tests pin the format against. No client library is
// vendored: the format is four line shapes (# HELP, # TYPE, a sample
// line, a comment), and writing it directly keeps the repo
// dependency-free while staying scrapeable by any Prometheus.

// PromContentType is the Content-Type a 0.0.4 text exposition is served
// under.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample line.
type Label struct {
	Name, Value string
}

// Prom writes one Prometheus text exposition. Families are written with
// Family, then their samples with Sample; the first write error is
// latched and every later call is a no-op, so call sites stay linear
// and read it once from Flush at the end.
type Prom struct {
	w   *bufio.Writer
	err error
}

// NewProm starts an exposition on w.
func NewProm(w io.Writer) *Prom {
	return &Prom{w: bufio.NewWriter(w)}
}

// Family writes one metric family header: the # HELP and # TYPE lines.
// typ is "counter", "gauge" or "histogram".
func (p *Prom) Family(name, typ, help string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n",
		name, escapeHelp(help), name, typ)
}

// Sample writes one sample line: name{labels} value. Labels may be nil.
func (p *Prom) Sample(name string, labels []Label, v float64) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	sb.WriteByte('\n')
	_, p.err = p.w.WriteString(sb.String())
}

// Int is Sample for integer-valued counters and gauges.
func (p *Prom) Int(name string, labels []Label, v int64) {
	p.Sample(name, labels, float64(v))
}

// Scalar writes a whole single-sample family: its header and its one
// unlabeled integer value.
func (p *Prom) Scalar(name, typ, help string, v int64) {
	p.Family(name, typ, help)
	p.Int(name, nil, v)
}

// Flush flushes the buffered exposition and returns the first error any
// write hit.
func (p *Prom) Flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// PromSample is one parsed sample line.
type PromSample struct {
	Labels []Label
	Value  float64
}

// PromFamily is one parsed metric family: its advertised type and the
// samples that followed its header (histogram families collect their
// _bucket/_sum/_count series).
type PromFamily struct {
	Type    string
	Samples []PromSample
}

// ParseProm parses a 0.0.4 text exposition back into its families,
// keyed by family name — the consistency check the /metrics tests run.
// It is strict about the line shapes this
// package writes: every sample must belong to a declared family (a
// histogram's _bucket/_sum/_count series belong to the base family),
// and a malformed line is an error, not a skip.
func ParseProm(text string) (map[string]PromFamily, error) {
	fams := map[string]PromFamily{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("transport: line %d: malformed TYPE: %q", ln+1, line)
			}
			fams[parts[2]] = PromFamily{Type: parts[3]}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or free comment
		}
		name, sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("transport: line %d: %w", ln+1, err)
		}
		fam := name
		if _, ok := fams[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suf)
				if f, ok := fams[base]; base != name && ok && f.Type == "histogram" {
					fam = base
				}
			}
		}
		f, ok := fams[fam]
		if !ok {
			return nil, fmt.Errorf("transport: line %d: sample %q has no # TYPE header", ln+1, name)
		}
		f.Samples = append(f.Samples, sample)
		fams[fam] = f
	}
	return fams, nil
}

// Value returns the single sample matching the given labels, for
// test assertions against one series of a family.
func (f PromFamily) Value(labels ...Label) (float64, bool) {
	for _, s := range f.Samples {
		if labelsEqual(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]Label(nil), a...), append([]Label(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func parseSample(line string) (string, PromSample, error) {
	var s PromSample
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return "", s, fmt.Errorf("no value on sample line %q", line)
	}
	name := rest[:sp]
	if brace >= 0 && brace < sp {
		name = rest[:brace]
		end := strings.Index(rest, "} ")
		if end < 0 {
			return "", s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[brace+1 : end])
		if err != nil {
			return "", s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		sp = end + 1
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest[sp+1:]), 64)
	if err != nil {
		return "", s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	if name == "" {
		return "", s, fmt.Errorf("empty metric name in %q", line)
	}
	return name, s, nil
}

func parseLabels(body string) ([]Label, error) {
	var out []Label
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label %q", body)
		}
		name := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", name)
		}
		out = append(out, Label{Name: name, Value: val.String()})
		body = rest[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return out, nil
}

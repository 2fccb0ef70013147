package bench

import (
	"context"
	"fmt"

	"aqverify/internal/mesh"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// The paper's evaluation (Figs 5a-8b) is one shape thirteen times: the
// three approaches — signature mesh, one-signature and multi-signature
// IFMH-tree — swept over n or |q|, reporting one cost. threeArms names
// the approaches' fixtures at one n, paperFig says which cost, and
// paperFig.row is the one function that measures it.

// approaches are the paper's competitors in column order; threeArms
// builds them in the same order over one database.
var approaches = []string{"mesh", "one-sig", "multi-sig"}

func threeArms(p point) []fixture {
	return []fixture{{n: p.n, mesh: true}, {n: p.n, mode: verify.OneSignature}, {n: p.n, mode: verify.MultiSignature}}
}

// arm is one approach: its build (Fig 5 reads the construction costs
// off it) and how it answers.
type arm struct {
	name string
	*built
	// answer evaluates q server-side, charging the traversal to ctr, and
	// returns the VO's wire size with the client-side check of exactly
	// that answer.
	answer func(q query.Query, ctr *metrics.Counter) (voBytes int, verify func(*metrics.Counter) error, err error)
}

func newArm(name string, b *built) arm {
	a := arm{name: name, built: b}
	if m := b.Mesh; m != nil {
		pub := m.Public()
		a.answer = func(q query.Query, ctr *metrics.Counter) (int, func(*metrics.Counter) error, error) {
			ans, err := m.Process(q, ctr)
			if err != nil {
				return 0, nil, err
			}
			return ans.VO.Size(), func(c *metrics.Counter) error {
				return mesh.Verify(pub, q, ans.Records, &ans.VO, c)
			}, nil
		}
		return a
	}
	t := b.Tree
	a.answer = func(q query.Query, ctr *metrics.Counter) (int, func(*metrics.Counter) error, error) {
		ans, err := t.Process(q, ctr)
		if err != nil {
			return 0, nil, err
		}
		return wire.VOSizeIFMH(ans), func(c *metrics.Counter) error {
			return verify.Verify(b.Public, q, ans.Records, &ans.VO, c)
		}, nil
	}
	return a
}

// sample is what one arm cost at one sweep point, summed over the
// point's queries; the value functions below divide.
type sample struct {
	arm     arm
	queries int
	server  metrics.Counter // processing: traversal (Fig 6)
	client  metrics.Counter // verification: hashes, signature checks (Fig 7)
	voBytes int             // VO wire bytes (Fig 8)
}

// measure runs the queries on every arm, verifying each answer when the
// figure is about the client.
func (h *Harness) measure(p point, b []*built, qs []query.Query, verify bool) ([]sample, error) {
	if ss, ok := h.verified[p]; ok && verify {
		return ss, nil
	}
	out := make([]sample, len(b))
	for i := range b {
		a := newArm(approaches[i], b[i])
		s := sample{arm: a, queries: len(qs)}
		for _, q := range qs {
			vo, check, err := a.answer(q, &s.server)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.name, err)
			}
			s.voBytes += vo
			if !verify {
				continue
			}
			if err := check(&s.client); err != nil {
				return nil, fmt.Errorf("%s: %w", a.name, err)
			}
		}
		out[i] = s
	}
	if verify {
		h.verified[p] = out
	}
	return out, nil
}

// paperFig is what distinguishes one paper figure from another.
type paperFig struct {
	kind query.Kind
	// size is the result size the point's queries target; nil means the
	// figure issues none (Fig 5 reads the construction costs).
	size   func(c *Config, p point) int
	verify bool
	// value extracts the figure's cost from an arm's sample; scale, when
	// set, converts it by calibrated factors into one cell each (Fig 7b:
	// ms per hash; Fig 7c: ms per RSA and per DSA check).
	value  func(s sample) float64
	scale  func(h *Harness) ([]float64, error)
	format func(v float64) string
}

func three(*Config, point) int                 { return 3 }
func swept(_ *Config, p point) int             { return p.k }
func qFixed(c *Config, _ point) int            { return c.QFixed }
func asInt(v float64) string                   { return fmtInt(int(v)) }
func asBytes(v float64) string                 { return fmtBytes(int(v)) }
func perQuery(total float64, s sample) float64 { return total / float64(s.queries) }

func buildSeconds(s sample) float64 { return s.arm.seconds }
func traversed(s sample) float64    { return perQuery(float64(s.server.Traversed()), s) }
func verifyHashes(s sample) float64 { return perQuery(float64(s.client.Hashes), s) }
func sigVerifies(s sample) float64  { return perQuery(float64(s.client.SigVerifies), s) }
func voBytes(s sample) float64      { return perQuery(float64(s.voBytes), s) }

// Stats walks the whole structure, so only the figures that print a
// structural count pay for it.
func signatures(s sample) float64 {
	if m := s.arm.Mesh; m != nil {
		return float64(m.SignatureCount())
	}
	return float64(s.arm.Tree.SignatureCount())
}

func structureBytes(s sample) float64 {
	if m := s.arm.Mesh; m != nil {
		return float64(m.Stats().ApproxBytes)
	}
	return float64(s.arm.Tree.Stats().ApproxBytes)
}

// row measures one sweep point: the lead cell (|q| on a result-size
// sweep, n otherwise), then the figure's cost per arm. This is where
// |q| is clamped to the database size.
func (pf paperFig) row(_ context.Context, h *Harness, p point, b []*built) ([]string, error) {
	lead := p.n
	var qs []query.Query
	var err error
	if pf.size != nil {
		size := min(pf.size(&h.Cfg, p), p.n)
		if p.k != 0 {
			lead = size
		}
		if qs, err = h.queriesFor(b[0], pf.kind, size); err != nil {
			return nil, err
		}
	}
	scales := []float64{1}
	if pf.scale != nil {
		if scales, err = pf.scale(h); err != nil {
			return nil, err
		}
	}
	samples, err := h.measure(p, b, qs, pf.verify)
	if err != nil {
		return nil, err
	}
	cells := []string{fmtInt(lead)}
	for _, s := range samples {
		for _, sc := range scales {
			cells = append(cells, pf.format(pf.value(s)*sc))
		}
	}
	return cells, nil
}

// queriesFor builds one point's query workload over the arms' shared
// database: Cfg.Reps queries of the kind, each targeting resultSize
// records.
func (h *Harness) queriesFor(db *built, kind query.Kind, resultSize int) ([]query.Query, error) {
	cfg := workload.QueryConfig{Count: h.Cfg.Reps, Seed: h.Cfg.Seed + int64(db.table.Len()), K: resultSize, ResultSize: resultSize}
	switch kind {
	case query.TopK:
		return workload.TopK(db.domain, cfg), nil
	case query.KNN:
		return workload.KNN(db.table, db.template, db.domain, cfg)
	case query.Range:
		return workload.Ranges(db.table, db.template, db.domain, cfg)
	default:
		return nil, fmt.Errorf("bench: unknown kind %v", kind)
	}
}

// Fig 7b prices the counted hashes, Fig 7c the counted signature checks
// under RSA and DSA, and Fig 7d both at the run's scheme, at
// per-operation costs calibrated once per harness; each figure's note
// states the calibration its cells were scaled by.

func hashMS(h *Harness) ([]float64, error) { return []float64{h.PerHashSeconds() * 1e3}, nil }

func hashNote(h *Harness) ([]string, error) {
	return []string{fmt.Sprintf("hash cost calibrated at %.0f ns/op", h.PerHashSeconds()*1e9)}, nil
}

func decryptMS(h *Harness) ([]float64, error) {
	rsa, err := h.PerVerifySeconds(sig.RSA)
	if err != nil {
		return nil, err
	}
	dsa, err := h.PerVerifySeconds(sig.DSA)
	if err != nil {
		return nil, err
	}
	return []float64{rsa * 1e3, dsa * 1e3}, nil
}

func decryptNote(h *Harness) ([]string, error) {
	ms, err := decryptMS(h)
	if err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("verify cost calibrated at RSA %.1f µs/op, DSA %.1f µs/op", ms[0]*1e3, ms[1]*1e3)}, nil
}

// totalPrices is Fig 7d's price list: ms per hash and ms per signature
// check under Cfg.Scheme.
func totalPrices(h *Harness) (hash, check float64, err error) {
	check, err = h.PerVerifySeconds(h.Cfg.Scheme)
	return h.PerHashSeconds() * 1e3, check * 1e3, err
}

// totalRow is Fig 7d's row: Fig 7b's cell plus the signature checks
// priced as Fig 7c prices them, at the run's scheme.
func totalRow(ctx context.Context, h *Harness, p point, b []*built) ([]string, error) {
	hash, check, err := totalPrices(h)
	if err != nil {
		return nil, err
	}
	priced := func(s sample) float64 { return verifyHashes(s)*hash + sigVerifies(s)*check }
	return paperFig{kind: query.Range, size: swept, verify: true, value: priced, format: fmtF}.row(ctx, h, p, b)
}

func totalNote(h *Harness) ([]string, error) {
	hash, check, err := totalPrices(h)
	if err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("modelled: hashes × %.0f ns/op + signature checks × %.1f µs/op (%s), i.e. Fig 7b plus Fig 7c's pricing at this scheme; "+
		"the measured clock is benchmark/'s core.verify_us", hash*1e6, check*1e3, h.Cfg.Scheme)}, nil
}

// Package verify is the client's trusted code (paper §3.3): everything a
// verifying client runs on an answer and the owner's public parameters.
// Verify checks authenticity — the FMH root recomputed from the window,
// anchored by the IMH path or the subdomain inequalities to the owner's
// signature — and then the query's semantics over the authenticated
// window.
//
// The package owns the protocol's client half: the answer and proof
// types, the Merkle proof check (ComputeRoot), the signature verifiers,
// their key format (MarshalVerifier) and the Memo a session verifies
// through. It builds and signs nothing: mhtree, fmh and core build and
// walk trees, sig signs, and all of them import this package, never the
// reverse (TestClosureReachesNoBuilder).
package verify

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

// Mode selects the signing scheme.
type Mode int

const (
	// OneSignature signs only the IMH-tree root (paper §3.1 step 4,
	// first approach).
	OneSignature Mode = iota
	// MultiSignature signs every subdomain's inequality-set + FMH-root
	// digest (second approach).
	MultiSignature
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case OneSignature:
		return "one-signature"
	case MultiSignature:
		return "multi-signature"
	default:
		return fmt.Sprintf("verify.Mode(%d)", int(m))
	}
}

// SemTol is the semantic-check tolerance of the score-monotonicity
// check. Scores are bit-identical on server and client whatever their
// CPUs: Template.Score does the same correctly rounded IEEE-754 steps in
// the same order, and rounds each product explicitly so that no CPU
// fuses a multiply-add (scripts/nofma.sh). The tolerance only absorbs
// the gap between the owner's exact-rational construction order and
// float evaluation of near-tied scores. It is a constant of the
// protocol, never read from a server.
const SemTol = 1e-9

// PublicParams is what the data owner publishes out of band: everything a
// client needs to verify query results.
type PublicParams struct {
	Verifier Verifier
	Template funcs.Template
	Mode     Mode
	// Epoch is the monotonic publication epoch of the bundle the
	// parameters describe: 1 for a fresh outsourcing, bumped by every
	// applied mutation batch. An answer verifies against exactly one
	// epoch's bundle; clients compare epochs to detect a stale or forked
	// server before misreading a verification failure as tampering.
	Epoch uint64
}

// ErrVerification wraps every verification failure, so callers can
// distinguish "the result is not authentic/complete" from operational
// errors.
var ErrVerification = errors.New("verify: verification failed")

func vErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrVerification, fmt.Sprintf(format, args...))
}

// Verify checks a query answer against the data owner's public
// parameters (paper §3.3). The two steps are:
//
//  1. Authenticity — recompute the FMH root from the result, boundary
//     records and range proof; then either fold the IMH path up to the
//     signed root (one-signature) or check the function input against the
//     subdomain's signed inequality set (multi-signature).
//  2. Semantics — mimic the server's query processing over the now-
//     authenticated window: scores ascending, boundaries excluded by the
//     query condition, window exactly the query's answer.
//
// A nil return means the result is sound and complete. The counter
// observes the client's hash and signature-verification costs (the
// paper's Fig 7 metrics).
func Verify(pub PublicParams, q query.Query, recs []record.Record, vo *VO, ctr *metrics.Counter) error {
	if pub.Verifier == nil {
		return fmt.Errorf("verify: PublicParams.Verifier is required")
	}
	if vo == nil {
		return vErrf("missing verification object")
	}
	if vo.Mode != pub.Mode {
		return vErrf("verification object mode %v does not match published mode %v", vo.Mode, pub.Mode)
	}
	if err := q.Validate(pub.Template.Dim()); err != nil {
		return vErrf("invalid query: %v", err)
	}
	h := hashing.New(ctr)

	// --- Structural consistency of the window layout. ---
	m := len(recs)
	// Start > ListLen-m, not Start+m > ListLen: a forged Start cannot wrap.
	if vo.ListLen < 0 || vo.Start < 0 || vo.Start > vo.ListLen-m {
		return vErrf("window of %d at %d exceeds claimed list length %d", m, vo.Start, vo.ListLen)
	}
	if (vo.Start == 0) != (vo.Left.Kind == BoundaryMin) {
		return vErrf("left boundary kind inconsistent with window start %d", vo.Start)
	}
	if (vo.Start+m == vo.ListLen) != (vo.Right.Kind == BoundaryMax) {
		return vErrf("right boundary kind inconsistent with window end %d/%d", vo.Start+m, vo.ListLen)
	}
	if vo.Left.Kind == BoundaryMax || vo.Right.Kind == BoundaryMin {
		return vErrf("boundary sentinel on the wrong side")
	}

	// --- Step 1a: recompute the FMH root. ---
	// The leaves of a window of up to 64 records, and the path's or the
	// inequalities' encoding, are built on the stack.
	var leafBuf [66]hashing.Digest
	var encBuf [512]byte
	leaves := slices.Grow(leafBuf[:0], m+2)
	ld, err := boundaryDigest(h, vo.Left, vo.ListLen)
	if err != nil {
		return vErrf("%v", err)
	}
	leaves = append(leaves, ld)
	for _, r := range recs {
		leaves = append(leaves, fmhLeafDigest(h, r))
	}
	rd, err := boundaryDigest(h, vo.Right, vo.ListLen)
	if err != nil {
		return vErrf("%v", err)
	}
	leaves = append(leaves, rd)

	fmhRoot, err := ComputeFMHRoot(h, vo.ListLen, vo.Start, leaves, vo.FProof)
	if err != nil {
		return vErrf("FMH proof: %v", err)
	}

	// --- Step 1b: anchor the FMH root to the owner's signature. ---
	switch vo.Mode {
	case OneSignature:
		cur := h.Subdomain(fmhRoot)
		enc := encBuf[:0] // one hyperplane-encoding buffer for the whole path
		for i := len(vo.Path) - 1; i >= 0; i-- {
			step := vo.Path[i]
			if len(step.Hp.C) != pub.Template.Dim() {
				return vErrf("path step %d has a %d-D hyperplane", i, len(step.Hp.C))
			}
			// The recorded branch must be the branch the query input
			// takes; this is what proves X lies in the leaf subdomain.
			if (step.Hp.Side(q.X) >= 0) != step.TookAbove {
				return vErrf("IMH path step %d inconsistent with function input", i)
			}
			enc = step.Hp.Encode(enc[:0])
			if step.TookAbove {
				cur = h.Intersection(enc, cur, step.Sibling)
			} else {
				cur = h.Intersection(enc, step.Sibling, cur)
			}
		}
		root := h.Root(cur)
		ctr.AddVerify(1)
		if err := pub.Verifier.Verify(root[:], vo.Signature); err != nil {
			return vErrf("root signature: %v", err)
		}
	case MultiSignature:
		if len(vo.Ineqs) == 0 {
			return vErrf("multi-signature VO lacks the subdomain inequality set")
		}
		for i, hs := range vo.Ineqs {
			if len(hs.H.C) != pub.Template.Dim() {
				return vErrf("inequality %d has %d variables", i, len(hs.H.C))
			}
			if !hs.Contains(q.X, 0) {
				return vErrf("function input violates subdomain inequality %d", i)
			}
		}
		enc := geometry.EncodeHalfspaces(encBuf[:0], vo.Ineqs)
		d := h.MultiSig(h.Ineqs(enc), fmhRoot)
		ctr.AddVerify(1)
		if err := pub.Verifier.Verify(d[:], vo.Signature); err != nil {
			return vErrf("subdomain signature: %v", err)
		}
	default:
		return vErrf("unknown mode %v", vo.Mode)
	}

	// --- Step 2: semantic re-check of the query over the window. ---
	return CheckWindowSemantics(pub.Template, q, recs, vo.Left, vo.Right, vo.ListLen)
}

// CheckWindowSemantics mimics the server's query processing over an
// already-authenticated window: it recomputes every score from the
// records (the same float64 arithmetic the server used, so score checks
// are exact) and validates the window against the query condition and its
// boundaries. It is shared by the IFMH verifier and the signature-mesh
// baseline verifier, which authenticate windows by different means but
// share the query semantics.
func CheckWindowSemantics(tpl funcs.Template, q query.Query, recs []record.Record, left, right Boundary, listLen int) error {
	m := len(recs)
	var scoreBuf [64]float64 // a window of up to 64 records scores on the stack
	scores := slices.Grow(scoreBuf[:0], m)[:m]
	for i, r := range recs {
		if len(r.Attrs) <= maxAttr(tpl) {
			return vErrf("result record %d lacks the template's attributes", i)
		}
		scores[i] = tpl.Score(r, q.X)
	}
	// Ascending order up to the construction-vs-evaluation tolerance.
	for i := 1; i < m; i++ {
		tol := float64(SemTol * (1 + math.Abs(scores[i-1])))
		if scores[i] < scores[i-1]-tol {
			return vErrf("result scores not ascending at position %d", i)
		}
	}
	leftScore := math.Inf(-1)
	if left.Kind == BoundaryRecord {
		if len(left.Rec.Attrs) <= maxAttr(tpl) {
			return vErrf("left boundary record lacks the template's attributes")
		}
		leftScore = tpl.Score(left.Rec, q.X)
	}
	rightScore := math.Inf(1)
	if right.Kind == BoundaryRecord {
		if len(right.Rec.Attrs) <= maxAttr(tpl) {
			return vErrf("right boundary record lacks the template's attributes")
		}
		rightScore = tpl.Score(right.Rec, q.X)
	}

	switch q.Kind {
	case query.TopK:
		if right.Kind != BoundaryMax {
			return vErrf("top-k result must end at the list tail")
		}
		// Right boundary == Max implies Start+m == ListLen (checked
		// structurally), and the max sentinel's in-range digest
		// authenticated ListLen.
		want := q.K
		if want > listLen {
			want = listLen
		}
		if m != want {
			return vErrf("top-k returned %d records, want %d", m, want)
		}
		if m > 0 && leftScore > scores[0]+float64(SemTol*(1+math.Abs(scores[0]))) {
			return vErrf("left neighbor outscores the top-k window floor")
		}
	case query.BottomK:
		if left.Kind != BoundaryMin {
			return vErrf("bottom-k result must start at the list head")
		}
		// Left boundary == Min implies Start == 0, and the min
		// sentinel's in-range digest authenticated listLen.
		want := q.K
		if want > listLen {
			want = listLen
		}
		if m != want {
			return vErrf("bottom-k returned %d records, want %d", m, want)
		}
		if m > 0 && rightScore < scores[m-1]-float64(SemTol*(1+math.Abs(scores[m-1]))) {
			return vErrf("right neighbor undercuts the bottom-k window ceiling")
		}
	case query.Range:
		for i, s := range scores {
			if s < q.L || s > q.U {
				return vErrf("result record %d score %v outside [%v,%v]", i, s, q.L, q.U)
			}
		}
		if !(leftScore < q.L) {
			return vErrf("left neighbor score %v does not precede the range", leftScore)
		}
		if !(rightScore > q.U) {
			return vErrf("right neighbor score %v does not follow the range", rightScore)
		}
	case query.KNN:
		if m < q.K {
			// Fewer than k records is only complete when the window is
			// the whole (sentinel-authenticated) list.
			if left.Kind != BoundaryMin || right.Kind != BoundaryMax {
				return vErrf("knn returned %d < k=%d records without covering the list", m, q.K)
			}
			if m != listLen {
				return vErrf("knn window size %d does not match list length %d", m, listLen)
			}
		} else if m != q.K {
			return vErrf("knn returned %d records, want k=%d", m, q.K)
		}
		if m == 0 {
			return vErrf("knn over an empty database")
		}
		dl := math.Abs(leftScore - q.Y) // +Inf for the min sentinel
		dr := math.Abs(rightScore - q.Y)
		maxIn, maxInRight := 0.0, math.Inf(-1)
		for _, s := range scores {
			d := math.Abs(s - q.Y)
			if d > maxIn {
				maxIn = d
			}
			if s > q.Y && d > maxInRight {
				maxInRight = d
			}
		}
		if dr < maxIn {
			return vErrf("right neighbor is closer to the target than the window maximum")
		}
		if dl < maxIn {
			return vErrf("left neighbor is closer to the target than the window maximum")
		}
		// Left-preference tie-breaking: a window element strictly right
		// of the target may never tie the skipped left neighbor.
		if dl <= maxInRight {
			return vErrf("window violates left-preference tie-breaking")
		}
	default:
		return vErrf("unknown query kind %v", q.Kind)
	}
	return nil
}

// maxAttr returns the largest attribute index the template reads.
func maxAttr(t funcs.Template) int {
	max := 0
	for _, a := range t.CoefAttrs {
		if a > max {
			max = a
		}
	}
	if t.BiasAttr > max {
		max = t.BiasAttr
	}
	return max
}

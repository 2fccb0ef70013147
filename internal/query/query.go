// Package query defines the three analytic query types of the paper —
// top-k, score range, and KNN in score space — together with their exact
// window semantics over a sorted function list and a trusted reference
// executor used as a test oracle.
//
// All three queries resolve to a contiguous window of the list of records
// sorted ascending by score under the query's function input X. Pinning
// the window semantics down exactly (including tie handling) matters
// because the client re-derives the window during verification and must
// agree with the server bit for bit.
package query

import (
	"fmt"
	"math"

	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
)

// Kind enumerates the supported analytic query types.
type Kind int

const (
	// TopK retrieves the k records with the highest scores. Ties at the
	// k-th score are resolved by the owner's canonical list order (exact
	// score, then record index), so the result is always exactly
	// min(k, n) records.
	TopK Kind = iota
	// Range retrieves every record whose score lies in [L, U].
	Range
	// KNN retrieves the k records whose scores are nearest to Y.
	// Distance ties between a left and right candidate are broken toward
	// the left (smaller score), making the window unique and
	// client-checkable.
	KNN
	// BottomK retrieves the k records with the lowest scores — the
	// mirror of TopK, included as the paper's "other query types"
	// extension point: any query whose answer is a contiguous window of
	// the sorted list plugs into the same machinery.
	BottomK
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case TopK:
		return "top-k"
	case Range:
		return "range"
	case KNN:
		return "knn"
	case BottomK:
		return "bottom-k"
	default:
		return fmt.Sprintf("query.Kind(%d)", int(k))
	}
}

// Query is one analytic query. X is the function input (the weight vector
// applied to every record's function); the remaining fields depend on
// Kind.
type Query struct {
	Kind Kind
	X    geometry.Point
	K    int     // TopK, KNN
	L, U float64 // Range
	Y    float64 // KNN
}

// NewTopK builds a top-k query.
func NewTopK(x geometry.Point, k int) Query {
	return Query{Kind: TopK, X: x, K: k}
}

// NewRange builds a range query over scores in [l, u].
func NewRange(x geometry.Point, l, u float64) Query {
	return Query{Kind: Range, X: x, L: l, U: u}
}

// NewKNN builds a k-nearest-neighbors query around score y.
func NewKNN(x geometry.Point, k int, y float64) Query {
	return Query{Kind: KNN, X: x, K: k, Y: y}
}

// NewBottomK builds a bottom-k query.
func NewBottomK(x geometry.Point, k int) Query {
	return Query{Kind: BottomK, X: x, K: k}
}

// Equal reports whether two queries are field-for-field identical
// (float fields compared exactly). Verifying clients use it to check
// that a server echoed the query it was asked.
func Equal(a, b Query) bool {
	if a.Kind != b.Kind || a.K != b.K || a.L != b.L || a.U != b.U || a.Y != b.Y || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

// Validate checks the query's internal consistency for a d-variable
// database.
func (q Query) Validate(dim int) error {
	if len(q.X) != dim {
		return fmt.Errorf("query: function input has %d variables, database has %d", len(q.X), dim)
	}
	for _, v := range q.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("query: non-finite function input")
		}
	}
	switch q.Kind {
	case TopK, KNN, BottomK:
		if q.K < 1 {
			return fmt.Errorf("query: %v needs k >= 1, got %d", q.Kind, q.K)
		}
	case Range:
		if math.IsNaN(q.L) || math.IsNaN(q.U) || q.L > q.U {
			return fmt.Errorf("query: range [%v,%v] is empty or invalid", q.L, q.U)
		}
	default:
		return fmt.Errorf("query: unknown kind %d", int(q.Kind))
	}
	if q.Kind == KNN && (math.IsNaN(q.Y) || math.IsInf(q.Y, 0)) {
		return fmt.Errorf("query: knn target must be finite")
	}
	return nil
}

// Window is a contiguous slice [Start, Start+Count) of positions in a
// sorted function list. Count may be zero (an empty range result), in
// which case Start is the insertion point of the query's lower bound.
type Window struct {
	Start, Count int
}

// End returns the exclusive end position.
func (w Window) End() int { return w.Start + w.Count }

// SelectWindow computes the query's result window over a sorted function
// list of n records, read through score: score(pos) is the score at q.X
// of the record at sorted position pos, ascending in pos. The list is
// never materialized — score is called only for the positions the
// selection probes: none for top-k and bottom-k, the two binary searches
// for a range (at most 2⌈log₂(n+1)⌉), one binary search plus one read per
// expansion step for kNN (at most ⌈log₂(n+1)⌉ + k + 1; only the side of
// the expansion that moved is read again). The counter observes the
// binary-search comparisons. This one function defines the query
// semantics for the server, the mesh baseline and the reference executor.
func SelectWindow(n int, score func(pos int) float64, q Query, ctr *metrics.Counter) (Window, error) {
	switch q.Kind {
	case TopK:
		k := q.K
		if k > n {
			k = n
		}
		return Window{Start: n - k, Count: k}, nil
	case BottomK:
		k := q.K
		if k > n {
			k = n
		}
		return Window{Start: 0, Count: k}, nil
	case Range:
		lo := lowerBound(n, score, q.L, ctr)
		hi := upperBound(n, score, q.U, ctr)
		if hi < lo {
			hi = lo
		}
		return Window{Start: lo, Count: hi - lo}, nil
	case KNN:
		k := q.K
		if k > n {
			k = n
		}
		if k == 0 {
			return Window{}, fmt.Errorf("query: knn over empty list")
		}
		// Greedy expansion with left preference on distance ties. dl and
		// dr are the distances of the two candidates; each is read when
		// its side first competes and again only after that side moved.
		right := lowerBound(n, score, q.Y, ctr)
		left := right - 1
		var dl, dr float64
		haveL, haveR := false, false
		for taken := 0; taken < k; taken++ {
			takeLeft := false
			switch {
			case left < 0:
				takeLeft = false
			case right >= n:
				takeLeft = true
			default:
				if !haveL {
					dl, haveL = math.Abs(score(left)-q.Y), true
				}
				if !haveR {
					dr, haveR = math.Abs(score(right)-q.Y), true
				}
				ctr.AddComparisons(1)
				takeLeft = dl <= dr
			}
			if takeLeft {
				left--
				haveL = false
			} else {
				right++
				haveR = false
			}
		}
		return Window{Start: left + 1, Count: k}, nil
	default:
		return Window{}, fmt.Errorf("query: unknown kind %d", int(q.Kind))
	}
}

// lowerBound returns the first position with score(pos) >= v.
func lowerBound(n int, score func(pos int) float64, v float64, ctr *metrics.Counter) int {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		ctr.AddComparisons(1)
		if score(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first position with score(pos) > v.
func upperBound(n int, score func(pos int) float64, v float64, ctr *metrics.Counter) int {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		ctr.AddComparisons(1)
		if score(mid) <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

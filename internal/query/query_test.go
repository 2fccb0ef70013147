package query

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/record"
)

func TestValidate(t *testing.T) {
	x := geometry.Point{1, 2}
	valid := []Query{
		NewTopK(x, 1),
		NewRange(x, 0, 0),
		NewRange(x, -5, 5),
		NewKNN(x, 3, 1.5),
	}
	for _, q := range valid {
		if err := q.Validate(2); err != nil {
			t.Errorf("%v: unexpected error %v", q.Kind, err)
		}
	}
	invalid := []Query{
		NewTopK(x, 0),
		NewTopK(geometry.Point{1}, 1),
		NewTopK(geometry.Point{math.NaN(), 0}, 1),
		NewRange(x, 5, -5),
		NewRange(x, math.NaN(), 1),
		NewKNN(x, 0, 1),
		NewKNN(x, 1, math.Inf(1)),
		{Kind: Kind(99), X: x},
	}
	for _, q := range invalid {
		if err := q.Validate(2); err == nil {
			t.Errorf("%+v: expected validation error", q)
		}
	}
}

func win(t *testing.T, scores []float64, q Query) Window {
	t.Helper()
	w, err := SelectWindow(len(scores), func(pos int) float64 { return scores[pos] }, q, nil)
	if err != nil {
		t.Fatalf("SelectWindow: %v", err)
	}
	return w
}

func TestSelectWindowTopK(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5}
	x := geometry.Point{0}
	if w := win(t, scores, NewTopK(x, 2)); w.Start != 3 || w.Count != 2 {
		t.Errorf("top-2 = %+v", w)
	}
	// k larger than n clamps.
	if w := win(t, scores, NewTopK(x, 10)); w.Start != 0 || w.Count != 5 {
		t.Errorf("top-10 of 5 = %+v", w)
	}
}

func TestSelectWindowRange(t *testing.T) {
	scores := []float64{1, 2, 2, 3, 5}
	x := geometry.Point{0}
	tests := []struct {
		l, u         float64
		start, count int
	}{
		{2, 3, 1, 3},     // both duplicate 2s and the 3
		{1.5, 4, 1, 3},   // interior bounds
		{0, 10, 0, 5},    // everything
		{6, 9, 5, 0},     // empty beyond the end
		{-3, 0, 0, 0},    // empty before the start
		{2.5, 2.7, 3, 0}, // empty interior gap
		{2, 2, 1, 2},     // degenerate range hits duplicates
	}
	for _, tc := range tests {
		w := win(t, scores, NewRange(x, tc.l, tc.u))
		if w.Start != tc.start || w.Count != tc.count {
			t.Errorf("range [%v,%v] = %+v, want start %d count %d", tc.l, tc.u, w, tc.start, tc.count)
		}
	}
}

func TestSelectWindowKNN(t *testing.T) {
	scores := []float64{1, 3, 6, 10, 15}
	x := geometry.Point{0}
	tests := []struct {
		k            int
		y            float64
		start, count int
	}{
		{1, 6.4, 2, 1},  // nearest to 6.4 is 6
		{2, 6.4, 1, 2},  // 6 then 3 (|3-6.4|=3.4 < |10-6.4|=3.6)
		{3, 6.4, 1, 3},  // plus 10
		{1, 100, 4, 1},  // off the high end
		{2, -100, 0, 2}, // off the low end
		{5, 6, 0, 5},    // whole list
		{9, 6, 0, 5},    // k clamps to n
	}
	for _, tc := range tests {
		w := win(t, scores, NewKNN(x, tc.k, tc.y))
		if w.Start != tc.start || w.Count != tc.count {
			t.Errorf("knn k=%d y=%v = %+v, want start %d count %d", tc.k, tc.y, w, tc.start, tc.count)
		}
	}
}

func TestSelectWindowKNNLeftPreference(t *testing.T) {
	scores := []float64{2, 4, 6}
	// y=5: distances to 4 and 6 tie at 1; left preference takes 4.
	w := win(t, scores, NewKNN(geometry.Point{0}, 1, 5))
	if w.Start != 1 || w.Count != 1 {
		t.Errorf("tie broke to %+v, want the left element (start 1)", w)
	}
	// k=2 takes both of the tied pair.
	w = win(t, scores, NewKNN(geometry.Point{0}, 2, 5))
	if w.Start != 1 || w.Count != 2 {
		t.Errorf("k=2 tie = %+v", w)
	}
}

func TestSelectWindowKNNBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*20) / 2 // encourage ties
		}
		sort.Float64s(scores)
		k := 1 + rng.Intn(n)
		y := rng.Float64() * 12
		w := win(t, scores, NewKNN(geometry.Point{0}, k, y))
		if w.Count != k {
			t.Fatalf("trial %d: count %d, want %d", trial, w.Count, k)
		}
		// The window must be optimal: its max distance must not exceed
		// the distance of any element outside it.
		maxIn := 0.0
		for p := w.Start; p < w.End(); p++ {
			if d := math.Abs(scores[p] - y); d > maxIn {
				maxIn = d
			}
		}
		for p := 0; p < n; p++ {
			if p >= w.Start && p < w.End() {
				continue
			}
			if d := math.Abs(scores[p] - y); d < maxIn-1e-12 {
				t.Fatalf("trial %d: outside element %v closer than window max %v", trial, scores[p], maxIn)
			}
		}
	}
}

func TestSelectWindowCountsComparisons(t *testing.T) {
	scores := make([]float64, 1024)
	for i := range scores {
		scores[i] = float64(i)
	}
	var ctr metrics.Counter
	at := func(pos int) float64 { return scores[pos] }
	if _, err := SelectWindow(len(scores), at, NewRange(geometry.Point{0}, 100, 200), &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.Comparisons == 0 || ctr.Comparisons > 64 {
		t.Errorf("Comparisons = %d, want ~2*log2(1024)", ctr.Comparisons)
	}
}

// TestSelectWindowReadsOnlyWhatItProbes pins the laziness the server's
// O(log n + k) walk rests on: the list is read through an accessor, and
// the selection calls it for the positions it probes and no others.
func TestSelectWindowReadsOnlyWhatItProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := geometry.Point{0}
	for _, n := range []int{1, 2, 7, 200, 2000} {
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*float64(n)) / 4 // ties
		}
		sort.Float64s(scores)
		reads := 0
		at := func(pos int) float64 { reads++; return scores[pos] }
		log2 := bits.Len(uint(n)) // ⌈log₂(n+1)⌉: the longest binary search over n positions
		for trial := 0; trial < 50; trial++ {
			k := 1 + rng.Intn(n+3)
			l := rng.Float64()*float64(n)/4 - 1
			for _, c := range []struct {
				q     Query
				bound int
			}{
				{NewTopK(x, k), 0},
				{NewBottomK(x, k), 0},
				{NewRange(x, l, l+rng.Float64()*float64(n)/8), 2 * log2},
				{NewKNN(x, k, l), log2 + k + 1},
			} {
				reads = 0
				if _, err := SelectWindow(n, at, c.q, nil); err != nil {
					t.Fatal(err)
				}
				if reads > c.bound {
					t.Fatalf("n=%d %v k=%d: %d score reads, want <= %d", n, c.q.Kind, k, reads, c.bound)
				}
			}
		}
	}
}

func testTable(t *testing.T, n int, seed int64) record.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()}}
	}
	tbl, err := record.NewTable(record.Schema{Name: "t", Columns: []record.Column{{Name: "a"}, {Name: "b"}}}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestExecTopK(t *testing.T) {
	tbl := testTable(t, 50, 1)
	tpl := funcs.ScalarProduct(2)
	q := NewTopK(geometry.Point{1, 0.5}, 5)
	res, err := Exec(tbl, tpl, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("got %d records", len(res.Records))
	}
	// Scores ascending, and all remaining records score no higher than
	// the smallest returned score.
	for i := 1; i < 5; i++ {
		if res.Scores[i] < res.Scores[i-1] {
			t.Error("scores not ascending")
		}
	}
	inResult := map[uint64]bool{}
	for _, r := range res.Records {
		inResult[r.ID] = true
	}
	for _, r := range tbl.Records {
		if inResult[r.ID] {
			continue
		}
		f := tpl.Interpret(0, r)
		if f.Eval(q.X) > res.Scores[0] {
			t.Fatalf("record %d outside top-k scores higher than the window floor", r.ID)
		}
	}
}

func TestExecRangeCompleteness(t *testing.T) {
	tbl := testTable(t, 80, 2)
	tpl := funcs.ScalarProduct(2)
	q := NewRange(geometry.Point{0.3, 0.7}, -0.5, 0.5)
	res, err := Exec(tbl, tpl, q)
	if err != nil {
		t.Fatal(err)
	}
	inResult := map[uint64]bool{}
	for i, r := range res.Records {
		inResult[r.ID] = true
		if res.Scores[i] < q.L || res.Scores[i] > q.U {
			t.Fatalf("record %d score %v outside range", r.ID, res.Scores[i])
		}
	}
	for _, r := range tbl.Records {
		s := tpl.Interpret(0, r).Eval(q.X)
		if s >= q.L && s <= q.U && !inResult[r.ID] {
			t.Fatalf("record %d with score %v missing from range result", r.ID, s)
		}
	}
}

func TestExecKNN(t *testing.T) {
	tbl := testTable(t, 60, 3)
	tpl := funcs.ScalarProduct(2)
	q := NewKNN(geometry.Point{0.9, -0.2}, 7, 0.1)
	res, err := Exec(tbl, tpl, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 7 {
		t.Fatalf("got %d records, want 7", len(res.Records))
	}
	maxIn := 0.0
	for _, s := range res.Scores {
		if d := math.Abs(s - q.Y); d > maxIn {
			maxIn = d
		}
	}
	inResult := map[uint64]bool{}
	for _, r := range res.Records {
		inResult[r.ID] = true
	}
	for _, r := range tbl.Records {
		if inResult[r.ID] {
			continue
		}
		s := tpl.Interpret(0, r).Eval(q.X)
		if math.Abs(s-q.Y) < maxIn-1e-12 {
			t.Fatalf("record %d closer to target than window max", r.ID)
		}
	}
}

func TestExecValidates(t *testing.T) {
	tbl := testTable(t, 5, 4)
	if _, err := Exec(tbl, funcs.ScalarProduct(2), NewTopK(geometry.Point{1}, 1)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := Exec(tbl, funcs.ScalarProduct(9), NewTopK(geometry.Point{1, 1}, 1)); err == nil {
		t.Error("bad template accepted")
	}
}

package mesh

import (
	"context"
	"errors"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// TestBuildCanceled: a done context aborts the baseline build with
// context.Canceled and no partial mesh — the figures' harness passes
// its ctx straight to BuildCtx.
func TestBuildCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := BuildCtx(ctx, lineTable(t, 150, 5), Params{
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("partial mesh returned alongside cancellation")
	}
}

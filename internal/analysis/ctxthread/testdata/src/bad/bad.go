// Package bad is ctxthread's seeded-violation fixture: severed context
// chains in library code and an exported goroutine spawner with no ctx
// parameter, beside every exempt shape the analyzer recognizes.
package bad

import "context"

// walkCtx is the context-honest implementation everything delegates to.
func walkCtx(ctx context.Context, n int) int {
	select {
	case <-ctx.Done():
		return 0
	default:
		return n
	}
}

// Severed manufactures a root context mid-call-graph: the seeded
// violation — the caller's cancellation never reaches walkCtx.
func Severed(n int) int {
	return walkCtx(context.Background(), n) + 1 // want: Background
}

// Sketchy uses the TODO root, same problem.
func Sketchy(n int) int {
	return walkCtx(context.TODO(), n) + 1 // want: TODO
}

// Spawn starts workers its callers cannot bound: the second seeded
// violation class. // want: no ctx param
func Spawn(n int) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() { done <- struct{}{} }()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// Walk is the blessed Ctx-sibling shim: its whole body delegates to
// WalkCtx with a background context. Clean.
func Walk(n int) int {
	return WalkCtx(context.Background(), n)
}

// WalkCtx is the exported context-honest variant.
func WalkCtx(ctx context.Context, n int) int {
	return walkCtx(ctx, n)
}

// SpawnCtx spawns but accepts a context: clean.
func SpawnCtx(ctx context.Context, n int) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() { done <- struct{}{} }()
	}
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-ctx.Done():
			return
		}
	}
}

// spawn is unexported: its callers sit in this package and can thread
// contexts around it, so only the exported surface is policed.
func spawn() {
	go func() {}()
}

// Prober shows the suppression path for a legitimate process-lifetime
// root.
func Prober(n int) int {
	//lint:ignore ctxthread fixture: prober outlives any request; Close stops it
	ctx := context.Background()
	return walkCtx(ctx, n)
}

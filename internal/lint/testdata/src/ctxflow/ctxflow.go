// Package ctxflow is a prooflint fixture: context threading through
// the call graph.
package ctxflow

import "context"

func process(ctx context.Context, s string) error { _ = ctx; _ = s; return nil }

func fire(ctx context.Context) { _ = ctx }

// HasCtxMintsBackground holds a ctx but severs it.
func HasCtxMintsBackground(ctx context.Context) error {
	_ = ctx
	return process(context.Background(), "x")
}

// NoCtxBackground mints a root context outside main.
func NoCtxBackground() error {
	ctx := context.Background()
	return process(ctx, "x")
}

// UsesTODO is the same violation through context.TODO, minted in a
// statement of its own.
func UsesTODO() error {
	ctx := context.TODO()
	return process(ctx, "x")
}

// Process is a single-statement wrapper that mints a root context.
func Process(s string) error {
	return process(context.Background(), s)
}

// Fire is the same wrapper without a result.
func Fire() {
	fire(context.Background())
}

// PassesNil hands a nil context to a ctx-accepting callee.
func PassesNil() error {
	return process(nil, "x")
}

// Threads is clean: the held ctx reaches the callee.
func Threads(ctx context.Context) error {
	return process(ctx, "x")
}

// InClosure severs the ctx inside a nested function literal.
func InClosure(ctx context.Context) error {
	_ = ctx
	f := func() error { return process(context.Background(), "y") }
	return f()
}

var bgCtx context.Context

// init may mint a root context.
func init() {
	bgCtx = context.Background()
}

// Suppressed carries an ignore directive on a real violation.
func Suppressed() error {
	//lint:ignore ctxflow fixture: detached on purpose
	ctx := context.Background()
	return process(ctx, "x")
}

package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow is the interprocedural context-threading analyzer. Where
// ctxfirst checks signatures syntactically (ctx exists and comes
// first), ctxflow follows the context through the call graph:
//
//   - a function that already has a ctx parameter must thread it —
//     minting context.Background()/context.TODO() there severs the
//     caller's cancellation and deadline chain;
//   - context.Background()/context.TODO() are forbidden everywhere
//     else except main, init and tests: a function without a ctx
//     parameter that needs one gains it, so every caller's
//     cancellation and tracer reach the work;
//   - nil must never be passed where a callee expects a
//     context.Context (ctx.Done() on a nil interface panics at use,
//     far from the call site that caused it).
type CtxFlow struct{}

// NewCtxFlow returns the analyzer.
func NewCtxFlow() *CtxFlow { return &CtxFlow{} }

// Name implements Analyzer.
func (*CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (*CtxFlow) Doc() string {
	return "thread held contexts to callees; context.Background()/TODO() only in main, init and tests"
}

// Check implements Analyzer; ctxflow works only at program scope.
func (*CtxFlow) Check(*File, *Reporter) {}

// CheckProgram implements ProgramAnalyzer.
func (a *CtxFlow) CheckProgram(prog *Program, r *Reporter) {
	for _, node := range prog.Graph.Funcs() {
		if !prog.InScope(prog.Fset.Position(node.Decl.Pos()).Filename) {
			continue
		}
		a.checkFunc(prog, node, r)
	}
}

func (a *CtxFlow) checkFunc(prog *Program, node *FuncNode, r *Reporter) {
	hasCtx := hasCtxParam(node.Fn)
	for _, site := range node.Calls {
		callee := site.Callees[0]
		switch FuncKey(callee) {
		case "context.Background", "context.TODO":
			switch {
			case hasCtx:
				r.Report(site.Pos, "context.%s() in a function that has a ctx parameter; thread ctx instead", callee.Name())
			case isEntryPoint(node.Fn):
				// main and init are where root contexts legitimately
				// start.
			default:
				r.Report(site.Pos, "context.%s() outside main or tests; accept a ctx parameter and thread it", callee.Name())
			}
			continue
		}
		a.checkNilCtxArgs(prog, site, callee, r)
	}
}

// checkNilCtxArgs flags literal nil passed in a context.Context
// parameter position.
func (a *CtxFlow) checkNilCtxArgs(prog *Program, site CallSite, callee *types.Func, r *Reporter) {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return
	}
	args := site.Call.Args
	// Method expressions (T.M(recv, ...)) carry the receiver as the
	// first argument; realign.
	if se, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr); ok {
		if sel, ok := prog.Info.Selections[se]; ok && sel.Kind() == types.MethodExpr && len(args) > 0 {
			args = args[1:]
		}
	}
	n := sig.Params().Len()
	if sig.Variadic() {
		n--
	}
	for i := 0; i < n && i < len(args); i++ {
		if !isCtxType(sig.Params().At(i).Type()) {
			continue
		}
		arg := ast.Unparen(args[i])
		if id, ok := arg.(*ast.Ident); ok && id.Name == "nil" && prog.Info.Types[args[i]].IsNil() {
			r.Report(args[i].Pos(), "nil passed as context.Context to %s; pass the caller's ctx", callee.Name())
		}
	}
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasCtxParam reports whether fn declares a context.Context parameter.
func hasCtxParam(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isEntryPoint reports whether fn is package main's main or an init
// function — the places a root context legitimately starts.
func isEntryPoint(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "main":
		return fn.Pkg() != nil && fn.Pkg().Name() == "main"
	case "init":
		return true
	}
	return false
}

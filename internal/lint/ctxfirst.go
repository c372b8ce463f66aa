package lint

import (
	"go/ast"
	"strings"
)

// defaultCtxScopes are the package-path substrings where the
// ctx-first rule is enforced: the pipeline packages whose exported
// functions fan work out (goroutines, parallel maps) or block
// (channel operations, waits). Everything those packages launch must
// be cancellable from the request context, so the context has to
// arrive as the first parameter — the same contract core.ProfileCtx
// and profsession promise in their docs.
var defaultCtxScopes = []string{
	"internal/cache",
	"internal/core",
	"internal/backend",
	"internal/histstore",
	"internal/memo",
	"internal/parallel",
	"internal/profsession",
	"internal/roofline",
	"internal/server",
	"internal/workload",
}

// CtxFirst flags exported functions in scoped packages that fan out
// or block without taking a context.Context as their first parameter.
type CtxFirst struct {
	scopes []string
}

// NewCtxFirst builds the analyzer; with no arguments it guards the
// default pipeline packages.
func NewCtxFirst(scopes ...string) *CtxFirst {
	if len(scopes) == 0 {
		scopes = defaultCtxScopes
	}
	return &CtxFirst{scopes: scopes}
}

func (*CtxFirst) Name() string { return "ctxfirst" }
func (*CtxFirst) Doc() string {
	return "exported pipeline functions that fan out or block must take ctx context.Context first"
}

// inScope reports whether the file's package directory is guarded.
func (a *CtxFirst) inScope(f *File) bool {
	dir := f.Pkg.Dir + "/"
	for _, s := range a.scopes {
		if strings.Contains(dir, s+"/") || strings.HasSuffix(f.Pkg.Dir, s) {
			return true
		}
	}
	return false
}

func (a *CtxFirst) Check(f *File, r *Reporter) {
	if f.Test || !a.inScope(f) {
		return
	}
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !fn.Name.IsExported() {
			continue
		}
		if hasCtxFirstParam(fn.Type) {
			continue
		}
		if what := blockingConstruct(fn.Body); what != "" {
			r.Report(fn.Name.Pos(),
				"exported function %s %s but does not take ctx context.Context as its first parameter",
				fn.Name.Name, what)
		}
	}
}

// hasCtxFirstParam reports whether the first parameter is typed
// context.Context (by syntax).
func hasCtxFirstParam(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context" && sel.Sel.Name == "Context"
}

// selectHasDefault reports whether a select statement has a default
// clause (making every channel operation in it a non-blocking poll).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingConstruct returns a description of the first fan-out or
// blocking construct in the function's own body (nested function
// literals excluded: a closure blocks whoever eventually calls it,
// not this function), or "".
func blockingConstruct(body *ast.BlockStmt) string {
	found := ""
	walkSameFunc(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			found = "starts goroutines"
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				found = "blocks in select"
				return false
			}
			// A select with a default never blocks: its channel
			// operations are polls. Only the case bodies can block.
			for _, clause := range x.Body.List {
				if found != "" {
					break
				}
				if cc, ok := clause.(*ast.CommClause); ok {
					found = blockingConstruct(&ast.BlockStmt{List: cc.Body})
				}
			}
			return false
		case *ast.SendStmt:
			found = "sends on a channel"
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				found = "receives from a channel"
			}
		case *ast.CallExpr:
			if isPkgCall(x, "time", "Sleep") {
				found = "sleeps"
			} else if methodName(x) == "Wait" {
				found = "waits on " + recvPath(x)
			}
		}
		return found == ""
	})
	return found
}

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the type-aware tier of the engine: it layers go/types
// over the Loader's parsed files to produce per-package *types.Info and
// a Program the interprocedural analyzers (ctxflow, hotalloc,
// lockorder) share. Everything stays stdlib: module packages are type-checked from source through
// the same AST cache the syntactic tier uses, and out-of-module
// imports (the standard library) go through go/importer's source
// importer, which shares the Loader's FileSet so every position in the
// program resolves consistently.

// Program is the type-checked view of one load set, shared by every
// ProgramAnalyzer in a Run.
type Program struct {
	// Fset is the FileSet all files — requested, module dependencies
	// and source-imported stdlib — were parsed into.
	Fset *token.FileSet
	// Packages is the requested load set, in load order.
	Packages []*Package
	// Info holds merged type information (Types, Defs, Uses,
	// Selections, Implicits, Instances) for every source-checked
	// package: the requested set plus module dependencies.
	Info *types.Info
	// Graph is the static call graph over every source-checked
	// function, with interface calls conservatively resolved to all
	// implementing types in the program.
	Graph *CallGraph

	// inScope is the set of file paths diagnostics may be reported in:
	// the requested load set. The call graph may reach dependency
	// packages outside it; findings there are not this run's business.
	inScope map[string]bool
}

// InScope reports whether a file belongs to the requested load set
// (program analyzers walk dependency code but only diagnose requested
// code).
func (p *Program) InScope(filename string) bool {
	return p.inScope[filepath.ToSlash(filename)]
}

// sourcePkg is one package type-checked from source: a requested
// package or a module dependency pulled in by an import.
type sourcePkg struct {
	path      string // import path (or a directory-derived pseudo-path)
	pkg       *Package
	tpkg      *types.Package
	requested bool
}

// maxTypeErrors bounds the cascading-error noise from one broken
// package; the first errors are the actionable ones.
const maxTypeErrors = 5

// buildProgram type-checks the requested packages (and, recursively,
// their module dependencies) and assembles the Program. Type errors
// become diagnostics from the "typecheck" pseudo-analyzer — a tree
// that does not type-check cannot be analyzed type-aware, and hiding
// that would silently disable three analyzers.
func buildProgram(pkgs []*Package, diags *[]Diagnostic) *Program {
	if len(pkgs) == 0 {
		return nil
	}
	c := newTypeChecker(pkgs[0].loader)
	for _, pkg := range pkgs {
		c.checkRequested(pkg, diags)
	}
	prog := &Program{
		Fset:     c.fset,
		Packages: pkgs,
		Info:     c.info,
		inScope:  map[string]bool{},
	}
	var srcs []*sourcePkg
	for _, sp := range c.src {
		if sp.tpkg == nil {
			continue
		}
		srcs = append(srcs, sp)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].path < srcs[j].path })
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			prog.inScope[f.Path] = true
		}
	}
	prog.Graph = buildCallGraph(prog, srcs)
	return prog
}

// typeChecker drives go/types over loader-parsed files. It resolves
// module-internal imports from source through the loader and delegates
// everything else to the stdlib source importer. Not safe for
// concurrent use; buildProgram runs it once, before analyzers start.
type typeChecker struct {
	loader *Loader
	fset   *token.FileSet
	info   *types.Info
	std    types.Importer

	// modules maps module path -> absolute module root, learned
	// lazily from the go.mod above each requested package.
	modules map[string]string
	// src maps import path -> source-checked package (requested or
	// module dependency).
	src map[string]*sourcePkg
	// checking guards against import cycles (invalid Go, but the
	// checker must not recurse forever on them).
	checking map[string]bool
	cwd      string
}

func newTypeChecker(l *Loader) *typeChecker {
	fset := l.cache.fset
	cwd, _ := os.Getwd()
	return &typeChecker{
		loader: l,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Instances:  map[*ast.Ident]types.Instance{},
		},
		modules:  map[string]string{},
		src:      map[string]*sourcePkg{},
		checking: map[string]bool{},
		cwd:      cwd,
	}
}

// moduleFor walks up from dir to the nearest go.mod and returns the
// module path and absolute root ("" when the dir is outside any
// module — fixture trees in temp dirs).
func (c *typeChecker) moduleFor(dir string) (modPath, modRoot string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					mp := strings.TrimSpace(rest)
					c.modules[mp] = d
					return mp, d
				}
			}
			return "", ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// importPathFor derives the import path of a package directory: its
// module path plus the module-relative directory, or a pseudo-path
// from the directory itself outside any module.
func (c *typeChecker) importPathFor(dir string) string {
	modPath, modRoot := c.moduleFor(dir)
	if modPath == "" {
		return "lintfixture/" + filepath.ToSlash(dir)
	}
	abs, _ := filepath.Abs(dir)
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// checkRequested type-checks one requested package, reporting type
// errors as diagnostics.
func (c *typeChecker) checkRequested(pkg *Package, diags *[]Diagnostic) {
	path := c.importPathFor(pkg.Dir)
	if sp, ok := c.src[path]; ok {
		sp.requested = true
		return
	}
	sp := &sourcePkg{path: path, pkg: pkg, requested: true}
	c.src[path] = sp
	sp.tpkg = c.check(path, pkg, diags)
}

// Import resolves an import path for go/types: module-internal paths
// are type-checked from source through the loader; everything else
// (the standard library) goes to the stdlib source importer.
func (c *typeChecker) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if sp, ok := c.src[path]; ok {
		if sp.tpkg == nil {
			return nil, fmt.Errorf("import cycle or failed package %q", path)
		}
		return sp.tpkg, nil
	}
	for modPath, modRoot := range c.modules {
		if path != modPath && !strings.HasPrefix(path, modPath+"/") {
			continue
		}
		dir := modRoot
		if path != modPath {
			dir = filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(path, modPath+"/")))
		}
		// Prefer a cwd-relative dir so dependency files carry the same
		// paths (and suppression keys) as a "./..."-loaded set.
		if rel, err := filepath.Rel(c.cwd, dir); err == nil && !strings.HasPrefix(rel, "..") {
			dir = rel
		}
		if c.checking[path] {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		pkg, err := c.loader.loadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		sp := &sourcePkg{path: path, pkg: pkg}
		c.src[path] = sp
		var diags []Diagnostic
		sp.tpkg = c.check(path, pkg, &diags)
		if sp.tpkg == nil {
			return nil, fmt.Errorf("package %q does not type-check", path)
		}
		return sp.tpkg, nil
	}
	return c.std.Import(path)
}

// check runs go/types over the package's non-test files (test files
// stay syntactic: they may reference test-only helpers across files
// and never carry hot paths or lock cycles worth interprocedural
// cost). Returns nil when checking failed hard.
func (c *typeChecker) check(path string, pkg *Package, diags *[]Diagnostic) *types.Package {
	c.checking[path] = true
	defer delete(c.checking, path)

	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.AST)
		}
	}
	if len(files) == 0 {
		return nil
	}
	reported := 0
	conf := types.Config{
		Importer: c,
		Error: func(err error) {
			terr, ok := err.(types.Error)
			if !ok || terr.Soft {
				return
			}
			reported++
			if reported > maxTypeErrors {
				return
			}
			msg := terr.Msg
			if reported == maxTypeErrors {
				msg += " (further type errors in this package suppressed)"
			}
			*diags = append(*diags, Diagnostic{
				Pos:      terr.Fset.Position(terr.Pos),
				Analyzer: "typecheck",
				Message:  msg,
			})
		},
	}
	tpkg, err := conf.Check(path, c.fset, files, c.info)
	if err != nil && reported == 0 {
		// An error that never went through the handler (e.g. an import
		// failure) still needs a position; anchor it to the package's
		// first file.
		*diags = append(*diags, Diagnostic{
			Pos:      c.fset.Position(files[0].Package),
			Analyzer: "typecheck",
			Message:  err.Error(),
		})
	}
	return tpkg
}

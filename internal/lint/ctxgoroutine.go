package lint

import (
	"go/ast"
)

// CtxGoroutineConfig scopes the ctx-goroutine check.
type CtxGoroutineConfig struct {
	// SpawnSites maps a package import path to the functions allowed to
	// contain `go` statements — the recover()-ing pool helpers. A package
	// listed with no functions forbids goroutine spawns entirely.
	SpawnSites map[string][]string
	// CtxRequired maps a package import path to the pool helpers whose
	// direct use inside an exported function makes that function a
	// long-running entry point, and therefore obliges it to accept a
	// context.Context parameter for cooperative cancellation. Helpers are
	// named by qualified name ("neurotest/internal/pool.Run") and matched
	// by identity: a call is resolved through the type checker to the
	// function it targets, so a same-named function or method of another
	// package or type never matches.
	CtxRequired map[string][]string
}

// NewCtxGoroutine builds the ctx-goroutine check. The session and daemon
// layers parallelize heavily; an unsupervised `go` statement there can leak
// a goroutine past campaign teardown or let a worker panic kill the
// process. Two rules, both scoped to the configured packages:
//
//  1. `go` statements may appear only inside the approved pool helpers,
//     whose recover() discipline re-raises or converts worker panics
//     (pool.Run, the service queue and its supervised spawner).
//  2. An exported function that directly drives a pool helper is a
//     long-running entry point and must accept a context.Context, so
//     callers can bound it (the partial-result semantics introduced with
//     MeasureCoverageContext depend on every entry point forwarding one).
func NewCtxGoroutine(cfg CtxGoroutineConfig) *Analyzer {
	a := &Analyzer{
		Name: "ctx-goroutine",
		Doc:  "goroutines only via the recover()-ing pool helpers; exported pool drivers accept a context",
	}
	a.Run = func(pass *Pass) {
		spawnSites, scoped := cfg.SpawnSites[pass.Path]
		if !scoped {
			return
		}
		allowedSpawn := make(map[string]bool, len(spawnSites))
		for _, fn := range spawnSites {
			allowedSpawn[fn] = true
		}
		ctxRequired := make(map[string]bool)
		for _, fn := range cfg.CtxRequired[pass.Path] {
			ctxRequired[fn] = true
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				checkSpawns(pass, fd, allowedSpawn[name])
				if fd.Name.IsExported() && !allowedSpawn[name] {
					checkEntryPoint(pass, fd, ctxRequired)
				}
			}
		}
	}
	return a
}

// checkSpawns flags `go` statements outside approved pool helpers. Nested
// function literals inherit the enclosing declaration's standing: a helper
// may structure its internals freely, everything else may not spawn at all.
func checkSpawns(pass *Pass, fd *ast.FuncDecl, approved bool) {
	if approved {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Go, "go statement outside the approved pool helpers in %s; route the work through the recover()-ing pools so panics surface as errors", pass.Path)
		}
		return true
	})
}

// checkEntryPoint flags exported functions that directly call a
// ctx-required pool helper without accepting a context.Context parameter.
// Callees resolve through calleeFunc, which sees through explicit
// instantiations (pool.Run[T](…)) and is keyed by the generic origin.
func checkEntryPoint(pass *Pass, fd *ast.FuncDecl, ctxRequired map[string]bool) {
	if len(ctxRequired) == 0 || acceptsContext(fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.Info, call); fn != nil && ctxRequired[fn.Origin().FullName()] {
			pass.Reportf(call.Pos(), "exported %s drives pool helper %s but accepts no context.Context; long-running entry points must be cancellable", fd.Name.Name, displayKey(fn.Origin().FullName()))
			return false
		}
		return true
	})
}

// acceptsContext reports whether the declaration has a parameter whose type
// is context.Context.
func acceptsContext(fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if typeIsContext(field.Type) {
			return true
		}
	}
	return false
}

// typeIsContext matches the context.Context selector syntactically (the
// conventional import name is universal in this module).
func typeIsContext(expr ast.Expr) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

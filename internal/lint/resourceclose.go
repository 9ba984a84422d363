package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"neurotest/internal/lint/cfg"
)

// ClosableType describes one resource type the resource-close check
// tracks.
type ClosableType struct {
	// TypeName is the go/types qualified name of the (possibly
	// pointer-wrapped) resource, e.g. "net/http.Response" or "os.File".
	TypeName string
	// CloseVia is the selector path from the resource variable to its
	// Close method: empty for types closed directly (f.Close()), "Body"
	// for *http.Response (resp.Body.Close()).
	CloseVia string
}

// ResourceCloseConfig configures the resource-close check.
type ResourceCloseConfig struct {
	// Closables are the tracked resource types.
	Closables []ClosableType
	// CloseFuncs are go/types full names of helper functions that take
	// ownership of a closer argument and close it themselves (e.g. a
	// drain-and-close helper wrapping resp.Body.Close for connection
	// reuse). Passing the resource's closer — the variable itself, or its
	// CloseVia selector — to one of these counts as closing at that node,
	// not as an ownership escape.
	CloseFuncs []string
}

// NewResourceClose builds the resource-close check, the second CFG-backed
// analyzer: a local variable bound to a fresh closable resource —
// *http.Response from a client call, *os.File from os.Open/Create —
// must be closed on every control-flow path that reaches the function's
// ordinary exit, inline or via defer.
//
// The check is ownership-aware and deliberately under-approximates:
//
//   - if the resource escapes the function — returned, passed whole to
//     another call, stored in a composite/field/channel, or re-assigned
//     to another name — ownership transfers and the function is off the
//     hook (the sweep keeps manual audits for those sites);
//   - the idiomatic error guard immediately dominating the acquisition
//     (`if err != nil { return ... }` on the error paired with the same
//     assignment) is exempt: on that path the resource was never live
//     (net/http documents Body as non-nil only on success);
//   - panic/os.Exit/log.Fatal paths are exempt, as in lock-balance.
//
// Reads through the resource (resp.Body passed to a decoder, f.Name())
// do not count as escapes — only the variable itself moving out does.
func NewResourceClose(config ResourceCloseConfig) *Analyzer {
	byName := make(map[string]ClosableType, len(config.Closables))
	for _, c := range config.Closables {
		byName[c.TypeName] = c
	}
	closeFuncs := make(map[string]bool, len(config.CloseFuncs))
	for _, name := range config.CloseFuncs {
		closeFuncs[name] = true
	}
	a := &Analyzer{
		Name: "resource-close",
		Doc:  "closable resources (http response bodies, files) are closed on all paths or ownership visibly transfers",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, body := range functionBodies(fd.Body) {
					checkBodyResources(pass, body, byName, closeFuncs)
				}
			}
		}
	}
	return a
}

// acquisition is one tracked binding of a closable resource.
type acquisition struct {
	stmt       *ast.AssignStmt
	obj        types.Object // the resource variable
	errObj     types.Object // the paired error variable, if any
	closable   ClosableType
	closeFuncs map[string]bool
}

// checkBodyResources tracks closable acquisitions directly inside one
// function body.
func checkBodyResources(pass *Pass, body *ast.BlockStmt, closables map[string]ClosableType, closeFuncs map[string]bool) {
	var acqs []acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if _, isCall := as.Rhs[0].(*ast.CallExpr); !isCall {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			c, tracked := closableFor(obj.Type(), closables)
			if !tracked {
				continue
			}
			acqs = append(acqs, acquisition{
				stmt:       as,
				obj:        obj,
				errObj:     pairedError(pass, as, i),
				closable:   c,
				closeFuncs: closeFuncs,
			})
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}
	graph := cfg.New(body)
	if graph.Incomplete {
		return
	}
	for _, acq := range acqs {
		if escapes(pass, body, acq) {
			continue
		}
		sat := func(n ast.Node) bool { return hasCloseCall(pass, n, acq) }
		start, guarded, ok := liveRegion(pass, body, acq, sat)
		if !ok {
			continue // satisfied at the region head, or no live region
		}
		exempt := func(n ast.Node) bool { return guarded[n] }
		if ok, witness := graph.Satisfied(start, sat, cfg.PathOpts{ExemptPanic: true, Exempt: exempt}); !ok {
			where := ""
			if witness != nil {
				pos := pass.Fset.Position(witness.Pos())
				where = " (path escaping at line " + strconv.Itoa(pos.Line) + ")"
			}
			closeExpr := acq.obj.Name() + "." + acq.closable.closePath()
			pass.Reportf(acq.stmt.Pos(), "%s (%s) is not closed on every path to the function exit%s; call %s on all branches or defer it after the error check", acq.obj.Name(), acq.closable.TypeName, where, closeExpr)
		}
	}
}

// closePath renders the selector suffix that closes the resource.
func (c ClosableType) closePath() string {
	if c.CloseVia == "" {
		return "Close()"
	}
	return c.CloseVia + ".Close()"
}

// closableFor matches a variable type (through one pointer) against the
// tracked closable set.
func closableFor(t types.Type, closables map[string]ClosableType) (ClosableType, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ClosableType{}, false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ClosableType{}, false
	}
	c, ok := closables[obj.Pkg().Path()+"."+obj.Name()]
	return c, ok
}

// pairedError returns the error variable bound by the same assignment,
// if the call also returns one.
func pairedError(pass *Pass, as *ast.AssignStmt, resourceIdx int) types.Object {
	for i, lhs := range as.Lhs {
		if i == resourceIdx {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil && isErrorType(obj.Type()) {
			return obj
		}
	}
	return nil
}

// escapes reports whether the resource variable's ownership visibly
// leaves the function: the variable (or a selector rooted at it, like
// resp.Body) returned, stored into a composite literal or sent on a
// channel; the variable passed whole as a call argument; or the variable
// aliased by another assignment. Reads that merely traverse the resource
// (io.ReadAll(resp.Body) as a call argument) are not escapes — the bytes
// leave, the closer stays.
func escapes(pass *Pass, body *ast.BlockStmt, acq acquisition) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isResourceOrSelector(pass, res, acq.obj) {
					esc = true
				}
			}
		case *ast.CallExpr:
			if isCloseFuncCall(pass, n, acq) {
				// Ownership moves to a configured close helper, which is a
				// close (hasCloseCall), not a leak.
				return true
			}
			for _, arg := range n.Args {
				if isResourceIdent(pass, arg, acq.obj) {
					esc = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if isResourceOrSelector(pass, e, acq.obj) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if isResourceOrSelector(pass, n.Value, acq.obj) {
				esc = true
			}
		case *ast.AssignStmt:
			if n == acq.stmt {
				return true
			}
			for _, rhs := range n.Rhs {
				// b := resp.Body (or r2 := resp) creates an alias the
				// check cannot follow; the alias' close sites would be
				// invisible, so hand the site to a human.
				if isResourceOrSelector(pass, rhs, acq.obj) {
					esc = true
				}
			}
		}
		return true
	})
	return esc
}

// isResourceOrSelector reports whether e is the resource variable itself
// or a selector chain rooted at it (resp, resp.Body), but not a use
// nested inside a call or other expression.
func isResourceOrSelector(pass *Pass, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		e = ast.Unparen(sel.X)
	}
	return isResourceIdent(pass, e, obj)
}

// isResourceIdent reports whether e is exactly the resource variable.
func isResourceIdent(pass *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	used := pass.Info.Uses[id]
	if used == nil {
		used = pass.Info.Defs[id]
	}
	return used == obj
}

// hasCloseCall reports whether node n contains the closing call for the
// acquisition: <var>.Close() or <var>.<CloseVia>.Close(), plain or
// deferred (closure bodies are searched only under defer, mirroring
// lock-balance).
func hasCloseCall(pass *Pass, n ast.Node, acq acquisition) bool {
	inDefer := false
	if _, ok := n.(*ast.DeferStmt); ok {
		inDefer = true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && !inDefer {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCloseFuncCall(pass, call, acq) {
			found = true
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		target := sel.X
		if acq.closable.CloseVia != "" {
			via, ok := ast.Unparen(target).(*ast.SelectorExpr)
			if !ok || via.Sel.Name != acq.closable.CloseVia {
				return true
			}
			target = via.X
		}
		if isResourceIdent(pass, target, acq.obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCloseFuncCall reports whether call hands the acquisition's closer —
// the resource variable itself (empty CloseVia) or its CloseVia selector
// (resp.Body) — to one of the configured close-helper functions.
func isCloseFuncCall(pass *Pass, call *ast.CallExpr, acq acquisition) bool {
	if len(acq.closeFuncs) == 0 {
		return false
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !acq.closeFuncs[fn.FullName()] {
		return false
	}
	for _, arg := range call.Args {
		target := ast.Unparen(arg)
		if acq.closable.CloseVia != "" {
			via, ok := target.(*ast.SelectorExpr)
			if !ok || via.Sel.Name != acq.closable.CloseVia {
				continue
			}
			target = via.X
		}
		if isResourceIdent(pass, target, acq.obj) {
			return true
		}
	}
	return false
}

// liveRegion determines where the close obligation of an acquisition
// starts and which nodes are exempt as the acquisition's own dead error
// path. It returns start=nil,ok=false when the obligation is already met
// or cannot apply. Three shapes are understood:
//
//   - resp, err := acquire(); if err != nil { return ... }  — the query
//     starts at the acquisition and the guard's terminating then-block is
//     exempt. Only this immediately-following guard is: a later
//     `if err != nil` after a read on the same variable is exactly the
//     classic leak this check exists to catch.
//   - if resp, err := acquire(); err == nil { ... }         — the
//     resource is live only inside the then-block; the query starts at
//     its first statement (which may itself satisfy).
//   - if resp, err := acquire(); err != nil { return } else { ... } —
//     mirror of the first, with the then-block exempt.
func liveRegion(pass *Pass, body *ast.BlockStmt, acq acquisition, sat func(ast.Node) bool) (ast.Node, map[ast.Node]bool, bool) {
	guarded := make(map[ast.Node]bool)
	if ifStmt := enclosingIfInit(body, acq.stmt); ifStmt != nil {
		if acq.errObj != nil && isErrGuard(pass, ifStmt.Cond, acq.errObj, token.EQL) {
			// Success region is the then-block.
			if len(ifStmt.Body.List) == 0 {
				return nil, nil, false
			}
			first := ifStmt.Body.List[0]
			if sat(first) {
				return nil, nil, false
			}
			return first, guarded, true
		}
		if acq.errObj != nil && isErrGuard(pass, ifStmt.Cond, acq.errObj, token.NEQ) && blockTerminates(ifStmt.Body) {
			collectStmts(ifStmt.Body, guarded)
			return acq.stmt, guarded, true
		}
		// An if-init acquisition with an unrecognized condition: the
		// resource is live on both branches; check from the acquisition.
		return acq.stmt, guarded, true
	}
	if acq.errObj != nil {
		if guard, ok := followingStmt(body, acq.stmt).(*ast.IfStmt); ok &&
			isErrGuard(pass, guard.Cond, acq.errObj, token.NEQ) && blockTerminates(guard.Body) {
			collectStmts(guard.Body, guarded)
		}
	}
	return acq.stmt, guarded, true
}

// enclosingIfInit returns the IfStmt whose Init is stmt, or nil.
func enclosingIfInit(body *ast.BlockStmt, stmt ast.Stmt) *ast.IfStmt {
	var found *ast.IfStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if ifStmt, ok := n.(*ast.IfStmt); ok && ifStmt.Init == stmt {
			found = ifStmt
		}
		return true
	})
	return found
}

// collectStmts records every statement under b into set.
func collectStmts(b *ast.BlockStmt, set map[ast.Node]bool) {
	ast.Inspect(b, func(m ast.Node) bool {
		if stmt, ok := m.(ast.Stmt); ok {
			set[stmt] = true
		}
		return true
	})
}

// followingStmt finds the lexical successor of target within any
// statement list under body, or nil.
func followingStmt(body *ast.BlockStmt, target ast.Stmt) ast.Stmt {
	var next ast.Stmt
	scan := func(list []ast.Stmt) {
		for i, s := range list {
			if s == target && i+1 < len(list) {
				next = list[i+1]
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if next != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.BlockStmt:
			scan(n.List)
		case *ast.CaseClause:
			scan(n.Body)
		case *ast.CommClause:
			scan(n.Body)
		}
		return true
	})
	return next
}

// isErrGuard matches `<err> <op> nil` over the paired error variable.
func isErrGuard(pass *Pass, cond ast.Expr, errObj types.Object, op token.Token) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != op {
		return false
	}
	if !isResourceIdent(pass, bin.X, errObj) {
		return false
	}
	lit, ok := ast.Unparen(bin.Y).(*ast.Ident)
	return ok && lit.Name == "nil"
}

// blockTerminates reports whether a block's last statement leaves the
// enclosing flow: return, branch (break/continue/goto), or a process
// terminator.
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" && sel.Sel.Name == "Exit" {
					return true
				}
			}
		}
	}
	return false
}

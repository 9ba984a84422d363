package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc parses one function body from source and returns its graph
// plus a lookup from a marker comment substring to the statement node on
// the same line.
func parseFunc(t *testing.T, body string) (*Graph, func(marker string) ast.Node) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	g := New(fd.Body)
	lineOf := func(pos token.Pos) int { return fset.Position(pos).Line }
	markerLines := map[string]int{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, "// mark:"); ok {
				markerLines[strings.TrimSpace(rest)] = lineOf(c.Pos())
			}
		}
	}
	return g, func(marker string) ast.Node {
		line, ok := markerLines[marker]
		if !ok {
			t.Fatalf("no marker %q", marker)
		}
		var found ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil || found != nil {
				return false
			}
			if _, isStmt := n.(ast.Stmt); isStmt && lineOf(n.Pos()) == line {
				if _, isBlock := n.(*ast.BlockStmt); !isBlock {
					found = n
					return false
				}
			}
			return true
		})
		if found == nil {
			t.Fatalf("no statement on marker line %q (line %d)", marker, line)
		}
		return found
	}
}

// callNamed matches a statement that (anywhere inside it, including
// deferred closures) calls a function or method with the given bare name.
func callNamed(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		hit := false
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				hit = hit || fun.Name == name
			case *ast.SelectorExpr:
				hit = hit || fun.Sel.Name == name
			}
			return true
		})
		return hit
	}
}

func TestLinearSatisfied(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("release on the only path not seen")
	}
	if ok, _ := g.Satisfied(at("a"), callNamed("missing"), PathOpts{}); ok {
		t.Error("nonexistent call reported satisfied")
	}
}

func TestBranchMissingRelease(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	if cond() {
		return // mark:leak
	}
	release()
`)
	ok, witness := g.Satisfied(at("a"), callNamed("release"), PathOpts{})
	if ok {
		t.Fatal("early return path should violate")
	}
	if _, isRet := witness.(*ast.ReturnStmt); !isRet {
		t.Errorf("witness = %T, want the escaping return", witness)
	}
}

func TestBothBranchesRelease(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	if cond() {
		release()
		return
	}
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("both branches release; query should be satisfied")
	}
}

func TestDeferCountsAsSatisfying(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	defer release()
	if cond() {
		return
	}
	work()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("defer registration dominates every later exit")
	}
}

func TestPanicExemption(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	if cond() {
		panic("impossible")
	}
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{ExemptPanic: true}); !ok {
		t.Error("panic path should be exempt when requested")
	}
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); ok {
		t.Error("panic path should violate when not exempt")
	}
}

func TestLoopWithBreak(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	for i := 0; i < 10; i++ {
		if cond() {
			break
		}
	}
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("all loop exits flow into release")
	}
}

func TestInfiniteLoopIsVacuouslySafe(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	for {
		work()
	}
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("a path that never reaches the exit cannot violate")
	}
}

func TestRangeLoopBody(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	for _, v := range xs {
		use(v)
	}
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("range loop falls through to release on every path")
	}
}

func TestSwitchWithoutDefaultLeaks(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	switch mode() {
	case 1:
		release()
	case 2:
		release()
	}
`)
	// No default: the no-case path falls to the exit without release.
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); ok {
		t.Error("caseless path should violate")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	switch mode() {
	case 1:
		fallthrough
	case 2:
		release()
	default:
		release()
	}
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("fallthrough path reaches release in the next case")
	}
}

func TestSelectClauses(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	select {
	case <-ch:
		release()
	case <-done:
		return // mark:leak
	}
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); ok {
		t.Error("the done clause returns without release")
	}
}

func TestLabeledBreak(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
outer:
	for {
		for {
			if cond() {
				break outer
			}
		}
	}
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("labeled break exits to release")
	}
}

func TestExemptGuardPrunesPath(t *testing.T) {
	g, at := parseFunc(t, `
	resp := acquire() // mark:a
	if bad() {
		return // guarded: resource never live here
	}
	use(resp)
	release()
`)
	exempt := func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		return ok && len(ret.Results) == 0
	}
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{Exempt: exempt}); !ok {
		t.Error("exempted guard return should not count as a leak")
	}
}

func TestGotoMarksIncomplete(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	goto done
done:
	work()
`)
	if !g.Incomplete {
		t.Fatal("goto must mark the graph incomplete")
	}
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{}); !ok {
		t.Error("incomplete graphs must answer satisfied (no invented findings)")
	}
}

func TestOsExitIsPanicExit(t *testing.T) {
	g, at := parseFunc(t, `
	acquire() // mark:a
	if cond() {
		os.Exit(1)
	}
	release()
`)
	if ok, _ := g.Satisfied(at("a"), callNamed("release"), PathOpts{ExemptPanic: true}); !ok {
		t.Error("os.Exit path should be exempt")
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if g.Entry == nil || len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Error("nil body should yield entry→exit")
	}
}

package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScopesNameLivePackages keeps the production scopes from going stale:
// every package they name is one "./..." expands to, and every helper they
// name is a function declared in that package (a qualified helper name is
// checked against the package it qualifies). A scope naming a deleted or
// renamed package would silently check nothing.
func TestScopesNameLivePackages(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	dirOf := make(map[string]string, len(dirs))
	for _, d := range dirs {
		dirOf[loader.importPath(d)] = d
	}
	check := func(scope, path string, funcs ...string) {
		t.Helper()
		dir, ok := dirOf[path]
		if !ok {
			t.Errorf("%s names %s, which ./... does not contain", scope, path)
			return
		}
		for _, fn := range funcs {
			if !declaresFunc(t, dir, fn) {
				t.Errorf("%s names %s.%s, which is not declared", scope, path, fn)
			}
		}
	}
	for _, p := range DeterministicPaths() {
		check("DeterministicPaths", p)
	}
	for _, p := range FloatHelperPaths() {
		check("FloatHelperPaths", p)
	}
	gc := GoroutineConfig()
	for p, fns := range gc.SpawnSites {
		check("GoroutineConfig.SpawnSites", p, fns...)
	}
	for p, fns := range gc.CtxRequired {
		check("GoroutineConfig.CtxRequired", p)
		for _, fn := range fns {
			i := strings.LastIndex(fn, ".")
			check("GoroutineConfig.CtxRequired", fn[:i], fn[i+1:])
		}
	}
	for _, fn := range DefaultResourceClose().CloseFuncs {
		i := strings.LastIndex(fn, ".")
		check("DefaultResourceClose.CloseFuncs", fn[:i], fn[i+1:])
	}
}

// declaresFunc reports whether a non-test file of dir declares a function
// named name.
func declaresFunc(t *testing.T, dir, name string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

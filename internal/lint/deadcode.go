package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewDeadCode builds the dead-code check: every function and method
// declared in a package under internal/ needs a reference from non-test
// code outside its own body. A reference is any use go/types records —
// a call, a method value handed to a mux, a function value, a generic
// instantiation or a package-level initializer — not only a static call
// edge. Functions are keyed by go/types full name, as in BuildCallGraph,
// so a use seen through an importer's view of a package matches the
// declaration in the package's own view.
//
// Three kinds of declaration are exempt: init functions; methods whose
// receiver type (T or *T) implements an interface that declares them —
// any named interface of the loaded packages or their imports, plus
// error — since dynamic dispatch reaches them without a named reference;
// and sites under a //lint:ignore dead-code directive, whose reason must
// name the test packages that keep the function.
//
// "Nothing calls it" holds only over the whole module, so the check
// reports nothing unless the run loaded every package of the loader's own
// "./..." expansion: a partial load such as `neurolint ./internal/fault`
// sees only some callers.
func NewDeadCode() *Analyzer {
	a := &Analyzer{
		Name: "dead-code",
		Doc:  "every func and method under internal/ is referenced by non-test code outside its own body",
	}
	a.RunModule = func(pass *ModulePass) {
		if !wholeModule(pass.Packages) {
			return
		}
		used := make(map[string]bool)
		for _, pkg := range pass.Packages {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					self := ""
					if fd, ok := decl.(*ast.FuncDecl); ok {
						if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
							self = fn.FullName()
						}
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
								if key := fn.Origin().FullName(); key != self {
									used[key] = true
								}
							}
						}
						return true
					})
				}
			}
		}
		world := newInterfaceWorld(pass.Packages)
		for _, pkg := range pass.Packages {
			if !strings.Contains(pkg.Path+"/", "/internal/") {
				continue
			}
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Name.Name == "init" {
						continue
					}
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok || used[fn.FullName()] || world.dispatched(fn) {
						continue
					}
					pass.Reportf(fd.Name.Pos(), "%s is referenced by no non-test code; delete it, move it into a _test.go file, or name its test callers in //lint:ignore dead-code <reason>", displayKey(fn.FullName()))
				}
			}
		}
	}
	return a
}

// wholeModule reports whether pkgs hold every package of their loader's
// "./..." expansion.
func wholeModule(pkgs []*Package) bool {
	if len(pkgs) == 0 || pkgs[0].loader == nil {
		return false
	}
	dirs, err := pkgs[0].loader.Expand([]string{"./..."})
	if err != nil {
		return false
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Dir] = true
	}
	for _, d := range dirs {
		if !loaded[d] {
			return false
		}
	}
	return true
}

// interfaceWorld indexes the named interfaces of the loaded packages and
// everything they import by the names of the methods they declare, and
// records every view of each package: the loader type-checks each module
// package on its own, so a package imported by another is a second
// *types.Package whose types go/types tells apart from the first's.
type interfaceWorld struct {
	byMethod map[string][]*types.Interface
	views    map[string][]*types.Package
}

func newInterfaceWorld(pkgs []*Package) *interfaceWorld {
	w := &interfaceWorld{
		byMethod: make(map[string][]*types.Interface),
		views:    make(map[string][]*types.Package),
	}
	w.add(types.Universe.Lookup("error"))
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		w.views[p.Path()] = append(w.views[p.Path()], p)
		for _, name := range p.Scope().Names() {
			w.add(p.Scope().Lookup(name))
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	return w
}

// add indexes obj when it names a non-generic interface.
func (w *interfaceWorld) add(obj types.Object) {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return
	}
	if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		w.byMethod[name] = append(w.byMethod[name], iface)
	}
}

// dispatched reports whether fn is a method that an interface declaring
// it can reach: its receiver type, in any view of its package, implements
// such an interface through T or *T (the method set of *T holds T's).
func (w *interfaceWorld) dispatched(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, view := range w.views[fn.Pkg().Path()] {
		tn, ok := view.Scope().Lookup(named.Obj().Name()).(*types.TypeName)
		if !ok {
			continue
		}
		for _, iface := range w.byMethod[fn.Name()] {
			if types.Implements(types.NewPointer(tn.Type()), iface) {
				return true
			}
		}
	}
	return false
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a static, module-wide call graph over a set of loaded
// packages. Nodes are functions identified by their go/types full name
// ("neurotest/internal/stats.Quantile", "(*neurotest/internal/obs.Registry).Counter"),
// which is stable across the separately type-checked package views the
// Loader produces — the same function seen through its own package and
// through an importer's cache yields the same key.
//
// Only statically dispatched edges are recorded: direct calls through an
// identifier or selector (including methods on concrete receivers,
// promoted methods and instantiated generics). Calls through function
// values, interface methods and method values are invisible — the graph
// under-approximates, which is the right direction for an analyzer that
// reports reachability: it can miss a path, never invent one.
type CallGraph struct {
	// Funcs maps a function key to its declaration site, for every
	// function declared in a loaded package.
	Funcs map[string]*FuncNode
	// Edges maps a caller key to its outgoing call edges in source order.
	Edges map[string][]CallEdge
}

// FuncNode is one declared function of a loaded package.
type FuncNode struct {
	// Key is the function's full-name identity.
	Key string
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Pkg is the loaded package declaring the function.
	Pkg *Package
}

// CallEdge is one static call site.
type CallEdge struct {
	// Caller and Callee are function keys. Callee may name a function
	// outside the loaded set (stdlib), which then has no Funcs entry.
	Caller, Callee string
	// Pos is the call site.
	Pos token.Pos
}

// BuildCallGraph constructs the graph over the given packages. Calls made
// inside function literals are attributed to the enclosing declared
// function, matching how an auditor reads the code.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Funcs: make(map[string]*FuncNode),
		Edges: make(map[string][]CallEdge),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := obj.FullName()
				g.Funcs[key] = &FuncNode{Key: key, Decl: fd, Pkg: pkg}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeFunc(pkg.Info, call); callee != nil {
						g.Edges[key] = append(g.Edges[key], CallEdge{
							Caller: key,
							Callee: callee.FullName(),
							Pos:    call.Pos(),
						})
					}
					return true
				})
			}
		}
	}
	return g
}

// calleeFunc resolves the statically named function a call targets, or
// nil for dynamic calls (function values, method values, conversions,
// builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	// Unwrap generic instantiation and parenthesization.
	for unwrapped := true; unwrapped; {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		default:
			unwrapped = false
		}
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ReverseBFS computes, for every function key, the shortest call chain to
// any of the given sink keys: dist is the number of edges to the nearest
// sink, next the first hop along that chain. Keys absent from dist reach
// no sink.
func (g *CallGraph) ReverseBFS(sinks map[string]bool) (dist map[string]int, next map[string]string) {
	// Build the reversed adjacency once; iterate callers in sorted order
	// so tie-breaks between equal-length chains are deterministic.
	rev := make(map[string][]string)
	for caller, edges := range g.Edges {
		for _, e := range edges {
			rev[e.Callee] = append(rev[e.Callee], caller)
		}
	}
	for _, callers := range rev {
		sort.Strings(callers)
	}
	dist = make(map[string]int)
	next = make(map[string]string)
	queue := make([]string, 0, len(sinks))
	for s := range sinks {
		dist[s] = 0
		queue = append(queue, s)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, caller := range rev[cur] {
			if _, seen := dist[caller]; seen {
				continue
			}
			dist[caller] = dist[cur] + 1
			next[caller] = cur
			queue = append(queue, caller)
		}
	}
	return dist, next
}

// Chain renders the shortest call chain from key to a sink as
// "a → b → c", using next from ReverseBFS and display-shortened names.
func (g *CallGraph) Chain(key string, next map[string]string, sinkLabel func(string) string) string {
	var parts []string
	for cur := key; ; {
		parts = append(parts, displayKey(cur))
		n, ok := next[cur]
		if !ok {
			if label := sinkLabel(cur); label != "" {
				parts[len(parts)-1] = label
			}
			break
		}
		cur = n
	}
	return strings.Join(parts, " → ")
}

// displayKey shortens a full-name key for messages: package paths are
// reduced to their last element ("neurotest/internal/stats.Quantile" →
// "stats.Quantile", "(*neurotest/internal/obs.Registry).Counter" →
// "(*obs.Registry).Counter").
func displayKey(key string) string {
	shorten := func(qual string) string {
		if i := strings.LastIndex(qual, "/"); i >= 0 {
			return qual[i+1:]
		}
		return qual
	}
	if rest, ok := strings.CutPrefix(key, "(*"); ok {
		if i := strings.Index(rest, ")"); i >= 0 {
			return "(*" + shorten(rest[:i]) + rest[i:]
		}
	}
	if rest, ok := strings.CutPrefix(key, "("); ok {
		if i := strings.Index(rest, ")"); i >= 0 {
			return "(" + shorten(rest[:i]) + rest[i:]
		}
	}
	return shorten(key)
}

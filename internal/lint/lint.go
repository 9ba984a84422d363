// Package lint is a hand-rolled static-analysis framework and the analyzer
// suite behind the neurolint command. It enforces the repository invariants
// that the paper's headline claims depend on — exhaustive handling of the
// five fault models, bit-deterministic artifact generation, explicit
// floating-point comparison semantics, panic-free library code,
// supervised concurrency and no function nothing calls — using only the
// standard library's go/parser, go/ast, go/types and go/token (no
// golang.org/x/tools).
//
// Findings can be suppressed, one site at a time, with a directive comment
// on the offending line or the line above it:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory: a suppression without a documented justification
// is itself reported. DESIGN.md §10 documents each check and the paper
// claim it protects.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Analyzer is one named check. Run receives a fully type-checked package;
// RunFile, when set, is invoked once per file for purely syntactic checks;
// RunModule, when set, is invoked exactly once per run with every loaded
// package at once — the hook the interprocedural (call-graph) analyzers
// use. An analyzer may set any combination.
type Analyzer struct {
	// Name identifies the check in findings and suppression directives.
	Name string
	// Doc is a one-line description, shown by neurolint -list.
	Doc string
	// Run analyzes a whole type-checked package.
	Run func(*Pass)
	// RunFile analyzes one file syntactically.
	RunFile func(*Pass, *ast.File)
	// RunModule analyzes every loaded package together.
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's view of one package and collects its
// findings.
type Pass struct {
	// Analyzer is the check this pass runs.
	Analyzer *Analyzer
	// Path is the package import path.
	Path string
	// Fset resolves positions.
	Fset *token.FileSet
	// Files are the package's parsed sources.
	Files []*ast.File
	// Pkg and Info are the go/types view.
	Pkg  *types.Package
	Info *types.Info

	suppress suppressionIndex
	findings *[]Finding
}

// Reportf records a finding at pos unless a matching suppression directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.covers(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:   position,
		Check: p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	check  string
	reason string
	pos    token.Position
}

// suppressionIndex maps file name → line → directives declared there. A
// directive on line N covers findings on line N (trailing comment) and
// line N+1 (comment above the statement).
type suppressionIndex map[string]map[int][]directive

// covers reports whether a directive for check suppresses a finding at pos.
func (s suppressionIndex) covers(check string, pos token.Position) bool {
	lines := s[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.check == check {
				return true
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// buildSuppressions scans a package's comments for //lint:ignore
// directives. Malformed directives (missing check name or reason) are
// reported as findings of the synthetic check "lint-directive": a
// suppression that does not say what it suppresses, or why, defeats the
// audit trail the directive exists to provide.
func buildSuppressions(fset *token.FileSet, files []*ast.File, findings *[]Finding) suppressionIndex {
	idx := make(suppressionIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*findings = append(*findings, Finding{
						Pos:   pos,
						Check: "lint-directive",
						Msg:   "malformed directive: want //lint:ignore <check> <reason>",
					})
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]directive)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], directive{
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
					pos:    pos,
				})
			}
		}
	}
	return idx
}

// ModulePass carries a module-wide analyzer's view of every loaded
// package at once and collects its findings, respecting the same
// per-site suppression directives as per-package passes.
type ModulePass struct {
	// Analyzer is the check this pass runs.
	Analyzer *Analyzer
	// Fset resolves positions across all packages.
	Fset *token.FileSet
	// Packages are all packages loaded for this run, in load order.
	Packages []*Package

	suppress suppressionIndex
	findings *[]Finding
}

// Reportf records a finding at pos unless a matching suppression directive
// covers it.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.covers(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:   position,
		Check: p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a directive for this pass's check covers pos.
// Module analyzers use it to honor directives at sites other than the one
// a finding is reported at — e.g. an audited map range inside a helper the
// deterministic packages call, where the finding lands on the caller.
func (p *ModulePass) Suppressed(pos token.Pos) bool {
	return p.suppress.covers(p.Analyzer.Name, p.Fset.Position(pos))
}

// Runner applies a set of analyzers to packages.
type Runner struct {
	Analyzers []*Analyzer
}

// Packages runs the analyzers over every package — per-package hooks once
// per package, module hooks once over the whole set — and returns the
// surviving findings in position order. Every package must come from the
// same Loader: module-wide analyzers resolve positions from every package
// against one shared token.FileSet.
func (r *Runner) Packages(pkgs []*Package) []Finding {
	var findings []Finding
	suppress := make(suppressionIndex)
	for _, pkg := range pkgs {
		for file, lines := range buildSuppressions(pkg.Fset, pkg.Files, &findings) {
			suppress[file] = lines
		}
	}
	for _, pkg := range pkgs {
		for _, a := range r.Analyzers {
			if a.Run == nil && a.RunFile == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				suppress: suppress,
				findings: &findings,
			}
			if a.Run != nil {
				a.Run(pass)
			}
			if a.RunFile != nil {
				for _, f := range pkg.Files {
					a.RunFile(pass, f)
				}
			}
		}
	}
	if len(pkgs) > 0 {
		for _, a := range r.Analyzers {
			if a.RunModule == nil {
				continue
			}
			a.RunModule(&ModulePass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Packages: pkgs,
				suppress: suppress,
				findings: &findings,
			})
		}
	}
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by file, line, column, then check name, so
// output is stable across runs and analyzer registration order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

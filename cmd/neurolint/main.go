// Command neurolint runs the project's static-analysis suite (see
// internal/lint and DESIGN.md §10/§15) over module packages.
//
// Usage:
//
//	neurolint [-checks list] [-list] [-json] [-baseline file] [-write-baseline file] [packages]
//
// Packages default to ./... relative to the enclosing module. All
// requested packages are loaded before any analyzer runs, so the
// module-wide analyzers (the call-graph determinism closure and
// dead-code) see every cross-package edge of the requested world;
// dead-code reports only when that world is the whole ./... expansion.
//
// -json emits the findings as a machine-readable report with a stable
// field order and module-root-relative paths. -baseline filters the
// findings against a previously saved report so CI fails only on *new*
// findings; -write-baseline records the current findings as that file.
// The exit code is 0 when the tree is clean (or fully baselined), 1 when
// any new un-suppressed finding is reported, and 2 on usage or load
// errors — so `neurolint ./...` gates `make check` and CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"neurotest/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("neurolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a machine-readable JSON report")
	baselinePath := fs.String("baseline", "", "report only findings absent from this saved report")
	writeBaseline := fs.String("write-baseline", "", "write the current findings as a baseline file and exit 0")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: neurolint [-checks list] [-list] [-json] [-baseline file] [-write-baseline file] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-28s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		selected, err := selectChecks(analyzers, *checks)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs := make([]*lint.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	runner := &lint.Runner{Analyzers: analyzers}
	findings := runner.Packages(pkgs)

	// Stable identity for reports and baselines: module-root-relative
	// slash paths, identical across checkouts and machines.
	moduleRel := func(abs string) string {
		rel, err := filepath.Rel(loader.ModuleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return abs
		}
		return filepath.ToSlash(rel)
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		werr := lint.NewJSONReport(findings, moduleRel).Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 2
		}
		fmt.Fprintf(stderr, "neurolint: baseline %s written with %d finding(s)\n", *writeBaseline, len(findings))
		return 0
	}

	if *baselinePath != "" {
		base, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		findings = base.Filter(findings, moduleRel)
	}

	if *jsonOut {
		if err := lint.NewJSONReport(findings, moduleRel).Write(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, relativize(f))
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectChecks filters analyzers by a comma-separated name list.
func selectChecks(all []*lint.Analyzer, list string) ([]*lint.Analyzer, error) {
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("neurolint: unknown check %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// relativize renders a finding with a working-directory-relative path, the
// form editors and CI annotations link.
func relativize(f lint.Finding) string {
	s := f.String()
	wd, err := os.Getwd()
	if err != nil {
		return s
	}
	rel, err := filepath.Rel(wd, f.Pos.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return s
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", rel, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

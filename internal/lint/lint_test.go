package lint

import (
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fixtureBase prefixes the import path the loader derives for fixture
// packages under testdata/src; analyzer configurations in these tests use
// it to scope checks to the fixture under test.
const fixtureBase = "neurotest/internal/lint/testdata/src/"

// Package runs every analyzer over one loaded package and returns the
// surviving (un-suppressed) findings sorted by position. Module-wide
// analyzers see a single-package module.
func (r *Runner) Package(pkg *Package) []Finding {
	return r.Packages([]*Package{pkg})
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader("")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// want is one golden expectation: a finding whose message matches re must
// be reported on exactly this file and line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe accepts the expectation pattern in double quotes or backticks;
// backticks let a pattern quote regex metacharacters without fighting the
// comment syntax.
var wantRe = regexp.MustCompile("^// want (?:\"(.*)\"|`(.*)`)$")

// collectWants extracts the `// want "<regexp>"` trailing comments of a
// fixture package. The expectation covers the comment's own line.
func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "// want") {
						t.Fatalf("%s: malformed want comment %q", pkg.Fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pattern := m[1]
				if pattern == "" {
					pattern = m[2]
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, want{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
			}
		}
	}
	return out
}

// checkFixture runs the analyzers over one fixture package and compares the
// surviving findings against the fixture's want comments, both ways: every
// want must be hit, every finding must be wanted.
func checkFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	checkPackages(t, []*Package{loadFixture(t, name)}, analyzers...)
}

// checkPackages runs the analyzers over pkgs at once (so RunModule hooks see
// every cross-package reference) and matches the surviving findings against
// the union of the packages' want comments.
func checkPackages(t *testing.T, pkgs []*Package, analyzers ...*Analyzer) {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	findings := (&Runner{Analyzers: analyzers}).Packages(pkgs)
	matched := make([]bool, len(wants))
outer:
	for _, f := range findings {
		for i, w := range wants {
			if !matched[i] && w.file == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line && w.re.MatchString(f.Msg) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.re)
		}
	}
}

func TestExhaustiveFaultSwitchFixture(t *testing.T) {
	checkFixture(t, "exhaust",
		NewExhaustiveFaultSwitch(fixtureBase+"exhaust", "Kind"))
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determ", NewDeterminism(fixtureBase+"determ"))
}

func TestDeterminismObsSpanFixture(t *testing.T) {
	// determobs mirrors internal/obs (a deterministic path in production):
	// a span struct capturing time.Now/time.Since directly is flagged, the
	// single audited clock hook is not.
	checkFixture(t, "determobs", NewDeterminism(fixtureBase+"determobs"))
}

func TestDeterminismScopedToConfiguredPaths(t *testing.T) {
	// determoff reads the clock and ranges maps, but is not configured as a
	// deterministic path: no findings.
	checkFixture(t, "determoff", NewDeterminism(fixtureBase+"determ"))
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, "floateq", NewFloatEq(fixtureBase+"margin"))
}

func TestFloatEqAllowsHelperPackage(t *testing.T) {
	// The same fixture produces zero findings when its own path is the
	// sanctioned comparison-helper home.
	pkg := loadFixture(t, "floateq")
	a := NewFloatEq(fixtureBase + "floateq")
	if got := (&Runner{Analyzers: []*Analyzer{a}}).Package(pkg); len(got) != 0 {
		t.Errorf("findings inside the allowed package: %v", got)
	}
}

func TestNoPanicFixture(t *testing.T) {
	checkFixture(t, "nopanic", NewNoPanic())
}

func TestNoPanicSkipsPackageMain(t *testing.T) {
	pkg := loadFixture(t, "nopanicmain")
	a := NewNoPanic()
	if got := (&Runner{Analyzers: []*Analyzer{a}}).Package(pkg); len(got) != 0 {
		t.Errorf("findings in package main: %v", got)
	}
}

func TestCtxGoroutineFixture(t *testing.T) {
	checkFixture(t, "ctxgo", NewCtxGoroutine(CtxGoroutineConfig{
		SpawnSites: map[string][]string{fixtureBase + "ctxgo": {"runPool"}},
		CtxRequired: map[string][]string{fixtureBase + "ctxgo": {
			fixtureBase + "ctxgo.runPool",
			fixtureBase + "ctxgo/pool.Run",
		}},
	}))
}

func TestCtxGoroutineScopedToConfiguredPackages(t *testing.T) {
	// With no configuration for the fixture's path the check must stay
	// silent, whatever the package spawns.
	pkg := loadFixture(t, "ctxgo")
	a := NewCtxGoroutine(CtxGoroutineConfig{})
	if got := (&Runner{Analyzers: []*Analyzer{a}}).Package(pkg); len(got) != 0 {
		t.Errorf("findings outside configured scope: %v", got)
	}
}

func TestMalformedDirectiveIsReported(t *testing.T) {
	// The suppression machinery itself runs with no analyzers registered.
	pkg := loadFixture(t, "directive")
	findings := (&Runner{}).Package(pkg)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the malformed directive", findings)
	}
	f := findings[0]
	if f.Check != "lint-directive" || !strings.Contains(f.Msg, "malformed directive") {
		t.Errorf("finding = %s", f)
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	sawSelf := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand included testdata directory %s", d)
		}
		if filepath.Base(d) == "lint" {
			sawSelf = true
		}
	}
	if !sawSelf {
		t.Errorf("Expand over ./... missed internal/lint itself: %v", dirs)
	}
}

// TestExpandIncludesPerfbench pins that "./..." descends into the nested
// perfbench module, which the go tool would skip: its calls into the
// module are references the dead-code check counts.
func TestExpandIncludesPerfbench(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(dirs, filepath.Join(loader.ModuleRoot, "perfbench")) {
		t.Errorf("Expand over ./... missed perfbench: %v", dirs)
	}
}

func TestImportPathMapping(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	if got := loader.importPath(loader.ModuleRoot); got != loader.ModulePath {
		t.Errorf("module root path = %q, want %q", got, loader.ModulePath)
	}
	sub := filepath.Join(loader.ModuleRoot, "internal", "fault")
	if got := loader.importPath(sub); got != loader.ModulePath+"/internal/fault" {
		t.Errorf("subdir path = %q", got)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Check: "no-panic", Msg: "boom"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 3, 7
	if got, wantS := f.String(), "x.go:3:7: [no-panic] boom"; got != wantS {
		t.Errorf("String() = %q, want %q", got, wantS)
	}
}

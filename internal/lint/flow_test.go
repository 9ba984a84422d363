package lint

// Fixture tests for the flow-aware analyzer suite: unchecked-error,
// lock-balance, resource-close (CFG-backed) and the call-graph
// interprocedural determinism closure, plus the loader's build-constraint
// handling their fixtures depend on.

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtures loads several fixture packages through ONE loader, the
// contract Runner.Packages requires: a shared token.FileSet, so
// module-wide analyzers can resolve positions across package boundaries.
func loadFixtures(t *testing.T, names []string) []*Package {
	t.Helper()
	loader, err := NewLoader("")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs := make([]*Package, len(names))
	for i, name := range names {
		pkg, err := loader.Load(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		pkgs[i] = pkg
	}
	return pkgs
}

func TestUncheckedErrorFixture(t *testing.T) {
	checkFixture(t, "uncheckederr",
		NewUncheckedError(fixtureBase+"uncheckederr.exempt"))
}

func TestLockBalanceFixture(t *testing.T) {
	checkFixture(t, "lockbal", NewLockBalance())
}

func TestResourceCloseFixture(t *testing.T) {
	checkFixture(t, "resclose", NewResourceClose(ResourceCloseConfig{
		Closables: []ClosableType{
			{TypeName: fixtureBase + "resclose.Response", CloseVia: "Body"},
			{TypeName: fixtureBase + "resclose.File"},
		},
		CloseFuncs: []string{fixtureBase + "resclose.drainClose"},
	}))
}

func TestResourceCloseIgnoresUntrackedTypes(t *testing.T) {
	// With no closable configuration every acquisition is untracked: the
	// same fixture must produce zero findings.
	pkg := loadFixture(t, "resclose")
	a := NewResourceClose(ResourceCloseConfig{})
	if got := (&Runner{Analyzers: []*Analyzer{a}}).Package(pkg); len(got) != 0 {
		t.Errorf("findings with empty closable set: %v", got)
	}
}

func TestInterproceduralDeterminismFixture(t *testing.T) {
	checkPackages(t, loadFixtures(t, []string{"interdet", "interdet/impure"}),
		NewInterproceduralDeterminism(fixtureBase+"interdet"))
}

func TestInterproceduralDeterminismChainNamesEveryHop(t *testing.T) {
	// The acceptance bar for the check: the fixture's Entry finding must
	// carry a call chain at least two hops deep, ending at the map-range
	// sink.
	pkgs := loadFixtures(t, []string{"interdet", "interdet/impure"})
	a := NewInterproceduralDeterminism(fixtureBase + "interdet")
	findings := (&Runner{Analyzers: []*Analyzer{a}}).Packages(pkgs)
	for _, f := range findings {
		if !strings.Contains(f.Msg, "interdet.Entry") {
			continue
		}
		if hops := strings.Count(f.Msg, "→"); hops < 2 {
			t.Errorf("Entry chain has %d hop(s), want >= 2: %s", hops, f.Msg)
		}
		if !strings.Contains(f.Msg, "ranges over a map") {
			t.Errorf("Entry chain does not name its sink: %s", f.Msg)
		}
		return
	}
	t.Fatalf("no finding for interdet.Entry in %v", findings)
}

func TestInterproceduralDeterminismNeedsWholeModule(t *testing.T) {
	// Loading only the root package leaves the impure call edges dangling:
	// the under-approximating graph must stay silent rather than guess.
	pkg := loadFixture(t, "interdet")
	a := NewInterproceduralDeterminism(fixtureBase + "interdet")
	if got := (&Runner{Analyzers: []*Analyzer{a}}).Package(pkg); len(got) != 0 {
		t.Errorf("findings without the callee package loaded: %v", got)
	}
}

func TestLoadHonorsBuildConstraints(t *testing.T) {
	// excluded.go fails to type-check on purpose: loading succeeds only if
	// the //go:build tag kept it away from the parser and checker.
	pkg := loadFixture(t, "tagged")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want only tagged.go", len(pkg.Files))
	}
	name := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
	if name != "tagged.go" {
		t.Errorf("loaded %s, want tagged.go", name)
	}
}

func TestExpandSkipsTagExcludedOnlyDir(t *testing.T) {
	// Regression: a directory whose every Go file is ruled out by build
	// constraints used to pass the suffix-only hasGoFiles probe, reach
	// Load, and hard-fail the entire run with "no buildable Go source
	// files". The walk must skip it instead.
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"internal/lint/testdata/src/taggedonly/..."})
	if err != nil {
		t.Fatalf("Expand over a tag-excluded-only tree: %v", err)
	}
	if len(dirs) != 0 {
		t.Errorf("Expand offered tag-excluded-only dirs %v", dirs)
	}
	// The non-recursive form names the directory explicitly and must say
	// why it cannot be analyzed.
	if _, err := loader.Expand([]string{"internal/lint/testdata/src/taggedonly"}); err == nil {
		t.Error("explicit tag-excluded-only dir did not error")
	}
}

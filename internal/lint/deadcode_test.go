package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// loadModule loads the packages matching patterns of the fixture module
// rooted at testdata/src/<name> through one loader, as neurolint does for
// the repository. The source importer resolves module imports with the go
// command in the process's working directory, so the fixture module is the
// working directory while the test runs.
func loadModule(t *testing.T, name string, patterns ...string) []*Package {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", "src", name)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	loader, err := NewLoader("")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	pkgs := make([]*Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = loader.Load(dir); err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
	}
	return pkgs
}

func TestDeadCodeFixture(t *testing.T) {
	pkgs := loadModule(t, "deadcode", "./...")
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d fixture packages, want lib, store and the command", len(pkgs))
	}
	checkPackages(t, pkgs, NewDeadCode())
}

func TestDeadCodeNeedsWholeModule(t *testing.T) {
	// Without the command the library's callers are missing: the check
	// must stay silent rather than report every function they call.
	pkgs := loadModule(t, "deadcode", "./internal/...")
	if got := (&Runner{Analyzers: []*Analyzer{NewDeadCode()}}).Packages(pkgs); len(got) != 0 {
		t.Errorf("findings on a partial load: %v", got)
	}
}

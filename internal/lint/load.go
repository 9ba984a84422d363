package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module, ready for
// analysis. Only non-test files are loaded: the invariants neurolint
// enforces protect production artifacts, and tests legitimately use
// wall-clock deadlines, deliberate panics and exact float expectations.
type Package struct {
	// Path is the package's import path ("neurotest/internal/fault").
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Fset resolves token positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types view of the package.
	Types *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader locates, parses and type-checks module packages using only the
// standard library: go/build selects files, go/parser parses them and
// go/types checks them with the stdlib source importer (which resolves both
// module-internal and standard-library imports from source).
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader for the module containing dir (or the working
// directory when dir is empty), walking upwards to the nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, fmt.Errorf("lint: resolving working directory: %w", err)
		}
		dir = wd
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving %s: %w", dir, err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		// The "source" importer type-checks dependencies from source and
		// caches them, so a whole-module run pays for each import once.
		imp: importer.ForCompiler(fset, "source", nil),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", file, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: %s declares no module path", file)
}

// Expand resolves command-line package patterns to package directories.
// Supported patterns are "./..." (every package under the module root, or
// under the pattern's prefix directory), a plain directory like
// "./internal/fault", and an import path inside the module. testdata,
// vendor, hidden and _-prefixed directories are skipped, as the go tool
// skips them. Unlike the go tool, the walk descends into nested modules:
// "./..." includes perfbench, whose callers the dead-code check must see.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = l.ModuleRoot
		} else if !filepath.IsAbs(base) {
			if rest, ok := strings.CutPrefix(base, l.ModulePath); ok && (rest == "" || rest[0] == '/') {
				base = filepath.Join(l.ModuleRoot, rest)
			} else {
				base = filepath.Join(l.ModuleRoot, base)
			}
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: expanding %s: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file
// that survives build-constraint evaluation — exactly the file set Load
// will analyze. Judging by suffix alone is not enough: a directory whose
// every file is excluded by a //go:build tag would be offered to Load,
// which then fails the whole run with "no buildable Go source files".
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err == nil && match {
			return true
		}
	}
	return false
}

// Load parses and type-checks the package in dir. Build constraints are
// honored via go/build; test files are excluded (see Package).
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving %s: %w", dir, err)
	}
	bp, err := build.Default.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: selecting files in %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	path := l.importPath(abs)
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	//lint:ignore unchecked-error every type error lands in typeErrs via conf.Error; the returned error duplicates typeErrs[0]
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		// Analysis over a package that does not type-check would silently
		// miss findings; fail loudly instead.
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}
	return &Package{
		Path:  path,
		Dir:   abs,
		Fset:  l.fset,
		Files: files,
		Types: pkg,
		Info:  info,

		loader: l,
	}, nil
}

// importPath derives the import path of a directory inside the module.
// Directories outside the module keep their absolute path as identifier.
func (l *Loader) importPath(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return abs
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

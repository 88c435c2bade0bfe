package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages without the go/packages machinery.
// Standard-library imports are satisfied by the compiler's source importer
// (type-checking GOROOT sources on demand); imports within the enclosing
// module are resolved recursively against ModuleRoot. Results are memoized
// into one shared type-check cache, so a whole-module run type-checks each
// dependency exactly once no matter how many packages import it.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory containing go.mod; empty for fixture
	// loading.
	ModuleRoot string
	// ModulePath is the module's import path prefix from go.mod.
	ModulePath string
	// FixtureRoot, when set, resolves non-stdlib import paths against a
	// fixture tree: importing "internal/obs" loads FixtureRoot/internal/obs.
	// analysistest points this at the testdata/src directory so fixture
	// packages can import stand-in dependencies.
	FixtureRoot string

	std  types.ImporterFrom
	pkgs map[string]*Package
}

// NewLoader returns a loader rooted at the module containing dir (walking
// up to the nearest go.mod). Pass "" to build a fixture loader restricted
// to standard-library imports.
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{Fset: token.NewFileSet(), pkgs: make(map[string]*Package)}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	if dir == "" {
		return l, nil
	}
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l.ModuleRoot, l.ModulePath = root, path
	return l, nil
}

// NewFixtureLoader returns a loader whose non-stdlib imports resolve under
// root (conventionally a testdata/src directory).
func NewFixtureLoader(root string) (*Loader, error) {
	l, err := NewLoader("")
	if err != nil {
		return nil, err
	}
	l.FixtureRoot = root
	return l, nil
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (string, string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer for the package loader: module-local
// paths load from source under ModuleRoot, everything else falls back to
// the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if sub, ok := l.moduleDir(path); ok {
		// The import path is already known; fixture trees have no module
		// layout to re-derive it from, so load under it directly.
		pkg, err := l.load(sub, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// moduleDir maps a module-local (or fixture-local) import path to its
// directory.
func (l *Loader) moduleDir(path string) (string, bool) {
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	}
	if l.ModulePath == "" {
		return "", false
	}
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if abs == l.ModuleRoot {
		return l.ModulePath, nil
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the non-test package in dir, deriving its
// import path from the module layout.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(dir, path)
}

// LoadFixture loads dir as a fixture package under an explicit import path
// (so checkers keyed on path shape, like nakedpanic's internal/ scoping,
// can be exercised from testdata).
func (l *Loader) LoadFixture(dir, pkgPath string) (*Package, error) {
	return l.load(dir, pkgPath)
}

func (l *Loader) load(dir, pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
		}
		return pkg, nil
	}
	l.pkgs[pkgPath] = nil // cycle guard

	files, err := parseGoDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg, err := l.check(dir, pkgPath, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// check type-checks one file set as a package without touching the memoized
// import cache — the building block for both the cached import graph and the
// uncached test-augmented variants.
func (l *Loader) check(dir, pkgPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.Fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// parseGoDir parses every non-test .go file in dir (sorted for determinism).
func parseGoDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	return parseGoFiles(fset, dir, false)
}

// parseGoFiles parses the .go files of dir — only non-test files, or only
// _test.go files — sorted for determinism.
func parseGoFiles(fset *token.FileSet, dir string, testFiles bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != testFiles {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDirWithTests returns the package variants of dir a test-inclusive run
// analyzes: the package with its in-package _test.go files folded in, plus —
// when present — the external "_test" package. The plain package (the one
// other packages import) is loaded first so the shared cache and the import
// graph are identical to a non-test run; the test variants are type-checked
// on top of it and are never importable.
func (l *Loader) LoadDirWithTests(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.LoadFixtureWithTests(dir, path)
}

// LoadFixtureWithTests is LoadDirWithTests under an explicit import path,
// for fixture packages.
func (l *Loader) LoadFixtureWithTests(dir, pkgPath string) ([]*Package, error) {
	base, err := l.load(dir, pkgPath)
	if err != nil {
		return nil, err
	}
	testFiles, err := parseGoFiles(l.Fset, dir, true)
	if err != nil {
		return nil, err
	}
	if len(testFiles) == 0 {
		return []*Package{base}, nil
	}
	var inPkg, external []*ast.File
	for _, f := range testFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}

	out := []*Package{base}
	if len(inPkg) > 0 {
		aug, err := l.check(dir, base.PkgPath, append(append([]*ast.File{}, base.Syntax...), inPkg...))
		if err != nil {
			return nil, err
		}
		out[0] = aug // analyze the augmented variant instead of the base
	}
	if len(external) > 0 {
		ext, err := l.check(dir, base.PkgPath+"_test", external)
		if err != nil {
			return nil, err
		}
		out = append(out, ext)
	}
	return out, nil
}

// PackageDirs returns every directory under root holding a non-test Go
// package, skipping testdata, hidden directories, and vendor trees — the
// expansion of the "./..." pattern.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files of one directory contiguously, but keep the
	// dedup robust to ordering anyway.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

package analysis

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

// A Package is one type-checked compilation unit ready for analysis. A
// directory yields up to two: the package proper (including in-package
// _test.go files) and, when present, the external foo_test package.
type Package struct {
	Path  string // import path; external test packages share the directory's
	Name  string // package clause name (may carry a _test suffix)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker complaints. Analysis still runs on
	// the partial information; the driver surfaces these as warnings.
	TypeErrors []error
}

// A Loader parses and type-checks packages of the enclosing module using
// only the standard library (go/parser + go/types, importing from source,
// so no compiled export data is needed).
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string
	imp        types.Importer
}

// NewLoader locates the enclosing module from dir (walking up to the
// nearest go.mod) and returns a loader for it. Its importer caches every
// package it type-checks, so one loader should be reused across packages.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module clause in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleRoot: root,
		imp: &moduleImporter{
			fset:    fset,
			modPath: modPath,
			root:    root,
			std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
			pkgs:    map[string]*types.Package{},
		},
	}, nil
}

// moduleImporter type-checks the module's own packages from their
// directories, without function bodies, and hands every other import path
// to the standard library's source importer. The source importer resolves
// each import through go/build, which runs `go list` for a module path on
// every import, even of a package it has already checked; across the
// analysis tests that was ~10 s of CPU in child processes, more than the
// type-checking itself.
type moduleImporter struct {
	fset    *token.FileSet
	modPath string
	root    string
	std     types.ImporterFrom
	// pkgs caches the module's packages by import path; nil marks one
	// being checked, so an import cycle is an error, not a recursion.
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, m.modPath+"/")
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	if pkg, seen := m.pkgs[path]; seen {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	m.pkgs[path] = nil
	pkg, err := m.check(path, filepath.Join(m.root, filepath.FromSlash(rel)))
	if err != nil {
		delete(m.pkgs, path)
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// check type-checks the non-test files of srcDir that match the build
// context, as the go command would compile them for an import.
func (m *moduleImporter) check(path, srcDir string) (*types.Package, error) {
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(srcDir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(srcDir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files for %s in %s", path, srcDir)
	}
	conf := types.Config{Importer: m, IgnoreFuncBodies: true}
	pkg, err := conf.Check(path, m.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking package %q failed (%v)", path, err)
	}
	return pkg, nil
}

// ImportPath maps a directory inside the module to its import path.
func (l *Loader) ImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", abs, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks every .go file directly in dir, grouped by
// package clause. Hard parse failures abort; type errors are recorded on the
// package and analysis proceeds with partial information.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.ImportPath(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string][]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		byName[f.Name.Name] = append(byName[f.Name.Name], f)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var pkgs []*Package
	for _, name := range names {
		files := byName[name]
		sort.Slice(files, func(i, j int) bool {
			return l.Fset.Position(files[i].Pos()).Filename < l.Fset.Position(files[j].Pos()).Filename
		})
		pkgs = append(pkgs, l.check(path, name, files))
	}
	return pkgs, nil
}

func (l *Loader) check(path, name string, files []*ast.File) *Package {
	pkg := &Package{
		Path:  path,
		Name:  name,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// The external test package needs a distinct type-checker path so it
	// can import the package under test.
	checkPath := path
	if strings.HasSuffix(name, "_test") && !strings.HasSuffix(path, "_test") {
		checkPath = path + ".test"
	}
	tpkg, err := conf.Check(checkPath, l.Fset, files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	return pkg
}

// ExpandPatterns resolves go-style package patterns ("./...",
// "./internal/...", plain directories) to the set of directories containing
// Go files, skipping testdata, vendor, and hidden or underscore directories.
func ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if skipDir(d.Name()) && p != root {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasPrefix(d.Name(), ".") && !strings.HasPrefix(d.Name(), "_") {
				add(filepath.Dir(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "node_modules" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

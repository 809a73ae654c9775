package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSuiteMeta asserts the registry invariants the framework relies on:
// unique non-empty names, non-empty docs, a Run hook, and no analyzer
// squatting on the reserved waiver-hygiene name.
func TestSuiteMeta(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" {
			t.Error("analyzer with empty name")
			continue
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %s has no doc (required for -list)", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if a.Name == WaiverAnalyzerName {
			t.Errorf("%q is reserved for waiver-hygiene findings", WaiverAnalyzerName)
		}
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t,") {
			t.Errorf("analyzer name %q must be lowercase with no separators (it is used in ignore directives)", a.Name)
		}
	}
}

// TestFixtureMarkersRegistered walks every fixture for want:<analyzer>
// markers and requires each named analyzer to be registered in All() — a
// renamed analyzer cannot silently orphan its fixtures.
func TestFixtureMarkersRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, a := range All() {
		registered[a.Name] = true
	}
	marker := regexp.MustCompile(`want:([a-z]+)`)
	fixtures := 0
	err := filepath.WalkDir(filepath.Join("testdata", "src"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fixtures++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range marker.FindAllStringSubmatch(string(data), -1) {
			if !registered[m[1]] {
				t.Errorf("%s references analyzer %q, which is not in All()", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fixtures == 0 {
		t.Fatal("no fixture files found under testdata/src")
	}
}

// TestEveryAnalyzerHasFixture enforces the inverse: each registered
// analyzer keeps at least one fixture marker, so every check stays covered
// by a negative test.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	used := map[string]bool{}
	marker := regexp.MustCompile(`want:([a-z]+)`)
	err := filepath.WalkDir(filepath.Join("testdata", "src"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range marker.FindAllStringSubmatch(string(data), -1) {
			used[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		if !used[a.Name] {
			t.Errorf("analyzer %s has no want:%s fixture marker under testdata/src", a.Name, a.Name)
		}
	}
}

// TestRegistriesNameLivePackages: every package a registry names by path
// (the determinism-restricted set, the nil-guard table, the layering DAG)
// is a package directory in the tree, and every allocflow root names a
// function or method the module's non-test source declares, so moving or
// renaming either fails here instead of silently dropping it from the
// analyzers' scope.
func TestRegistriesNameLivePackages(t *testing.T) {
	declared := declaredFuncs(t)
	for root := range allocRoots {
		if !declared[root] {
			t.Errorf("allocRoots names %s, which no non-test source declares", root)
		}
	}

	var paths []string
	for path := range restrictedPkgs {
		paths = append(paths, path)
	}
	for path := range nilGuarded {
		paths = append(paths, path)
	}
	for rel := range layerImports {
		paths = append(paths, internalPrefix+rel)
	}
	for _, path := range paths {
		dir := filepath.Join("..", "..", strings.TrimPrefix(path, "shadow/"))
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		live := false
		for _, f := range files {
			live = live || !strings.HasSuffix(f, "_test.go")
		}
		if !live {
			t.Errorf("registry names %s, but %s holds no package source", path, dir)
		}
	}
}

// declaredFuncs returns the functions and methods declared in the module's
// non-test source, fixtures excluded, named as allocRoots names them:
// package.Func or package.Recv.Method.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	root := filepath.Join("..", "..")
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && isModuleBoundary(path, d):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = f.Name.Name + "." + id.Name + "." + fd.Name.Name
				}
			}
			names[name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// isModuleBoundary reports whether the go tool leaves a directory out of
// the module's packages: testdata, a name starting with "." or "_", or a
// nested module.
func isModuleBoundary(path string, d fs.DirEntry) bool {
	if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	_, err := os.Stat(filepath.Join(path, "go.mod"))
	return err == nil
}

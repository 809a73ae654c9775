package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testLoader is shared across tests: the source importer's cache makes the
// first load pay for stdlib type-checking and the rest nearly free.
var testLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// internalPkgs memoizes loadInternal: each directory of the live tree is
// parsed and type-checked once per test binary, however many tests analyze
// it. The packages are shared, so no test may modify them.
var internalPkgs = map[string][]*Package{}

// loadInternal returns the packages of internal/<rel> (the directory's
// package and its external test package, if any), loaded through
// testLoader.
func loadInternal(t *testing.T, rel string) []*Package {
	t.Helper()
	if pkgs, ok := internalPkgs[rel]; ok {
		return pkgs
	}
	l, err := testLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.LoadDir(filepath.Join("..", "..", "internal", rel))
	if err != nil {
		t.Fatalf("load internal/%s: %v", rel, err)
	}
	internalPkgs[rel] = pkgs
	return pkgs
}

// loadFixture type-checks testdata/src/<name> and optionally rewrites its
// import path (the determinism analyzer only fires inside the simulation
// packages, so its fixtures masquerade as one).
func loadFixture(t *testing.T, name, pathOverride string) *Package {
	t.Helper()
	l, err := testLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	if pathOverride != "" {
		pkg.Path = pathOverride
	}
	return pkg
}

// checkFixture runs one analyzer over a fixture package and matches its
// findings line-by-line against the fixture's "want:<analyzer>" comments:
// every marked line must produce at least one finding and no finding may
// land on an unmarked line.
func checkFixture(t *testing.T, a *Analyzer, pkg *Package) {
	t.Helper()
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	marker := "want:" + a.Name
	want := map[string]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, marker) {
					pos := pkg.Fset.Position(c.Pos())
					want[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = true
				}
			}
		}
	}
	got := map[string]bool{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = true
		if !want[key] {
			t.Errorf("unexpected finding: %v", d)
		}
	}
	for key := range want {
		if !got[key] {
			t.Errorf("no %s finding at %s, want one", a.Name, key)
		}
	}
}

func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		seen[d] = true
		if strings.Contains(d, "testdata") {
			t.Errorf("pattern expansion must skip testdata, got %s", d)
		}
	}
	if !seen["."] {
		t.Errorf("./... should include the package's own directory, got %v", dirs)
	}

	dirs, err = ExpandPatterns([]string{"testdata/src/panicmsg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != filepath.Clean("testdata/src/panicmsg") {
		t.Errorf("plain directory pattern: got %v", dirs)
	}
}

func TestLoaderModuleDiscovery(t *testing.T) {
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath != "shadow" {
		t.Errorf("module path = %q, want shadow", l.ModulePath)
	}
	path, err := l.ImportPath(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "shadow/internal/analysis" {
		t.Errorf("import path = %q", path)
	}
}

// TestLoadDirHonorsBuildConstraints loads the module root, whose external
// test package declares raceEnabled in a `//go:build race` file and again
// in a `//go:build !race` one. The loader must parse only the file the
// default build context selects, so the root type-checks without errors.
func TestLoadDirHonorsBuildConstraints(t *testing.T) {
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var race []string
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Name, terr)
		}
		for _, f := range pkg.Files {
			if name := filepath.Base(l.Fset.Position(f.Pos()).Filename); strings.HasPrefix(name, "race_") {
				race = append(race, name)
			}
		}
	}
	if len(race) != 1 || race[0] != "race_disabled_test.go" {
		t.Errorf("loaded race files %v, want [race_disabled_test.go]", race)
	}
}

// TestSelfCheck runs the whole suite over this package: the analyzer
// implementation must satisfy its own rules.
func TestSelfCheck(t *testing.T) {
	if diags := RunAnalyzers(loadInternal(t, "analysis"), All()); len(diags) > 0 {
		for _, d := range diags {
			t.Errorf("self-check: %v", d)
		}
	}
}

// TestSuppressionDirective proves the ignore escape hatch works both as a
// trailing comment and as a directive-only line above the finding.
func TestSuppressionDirective(t *testing.T) {
	pkg := loadFixture(t, "suppress", "shadow/internal/sim")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly the unsuppressed one: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "outer variable unsuppressed") {
		t.Errorf("surviving finding should be the unsuppressed line, got %v", diags[0])
	}
}

func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "panicmsg", "")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{PanicMsg})
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "bad.go:") || !strings.HasSuffix(s, "(panicmsg)") {
		t.Errorf("diagnostic format %q should be file:line:col: msg (analyzer)", s)
	}
}

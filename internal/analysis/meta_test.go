package analysis

import (
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
// is a package directory in the tree, so moving or renaming a package
// fails here instead of silently dropping it from the analyzers' scope.
func TestRegistriesNameLivePackages(t *testing.T) {
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

package analysis

import (
	"strings"
	"testing"
)

func TestLayeringFixture(t *testing.T) {
	checkFixture(t, Layering, loadFixture(t, "layering", "shadow/internal/dram"))
}

// TestLayeringUnregisteredPackage: an internal package missing from the DAG
// may not import internal packages at all until it is registered.
func TestLayeringUnregisteredPackage(t *testing.T) {
	pkg := loadFixture(t, "layering", "shadow/internal/unregistered")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Layering})
	if len(diags) != 2 { // bad.go's memctrl import and good.go's timing import
		t.Fatalf("got %d findings, want 2 (every internal import of an unregistered package): %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "not registered in the layering DAG") {
			t.Errorf("unexpected message: %v", d)
		}
	}
}

// TestLayeringOutsideInternal: cmd/ and examples/ sit above the DAG and may
// import anything.
func TestLayeringOutsideInternal(t *testing.T) {
	pkg := loadFixture(t, "layering", "shadow/cmd/whatever")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Layering}); len(diags) > 0 {
		t.Errorf("layering fired outside internal/: %v", diags)
	}
}

// TestLayeringDAGMatchesTree type-checks every registered package and
// asserts the live tree satisfies the DAG — and that the DAG is acyclic, so
// the declared architecture is actually a hierarchy.
func TestLayeringDAGMatchesTree(t *testing.T) {
	for rel := range layerImports {
		if diags := RunAnalyzers(loadInternal(t, rel), []*Analyzer{Layering}); len(diags) > 0 {
			for _, d := range diags {
				t.Errorf("live tree violates the DAG: %v", d)
			}
		}
	}

	// Acyclicity by depth-first search over the allowed edges.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[string]int{}
	var visit func(pkg string, path []string)
	visit = func(pkg string, path []string) {
		switch state[pkg] {
		case grey:
			t.Fatalf("layerImports has a cycle: %s", strings.Join(append(path, pkg), " -> "))
		case black:
			return
		}
		state[pkg] = grey
		deps, ok := layerImports[pkg]
		if !ok && len(path) > 0 {
			t.Errorf("layerImports[%s] allows %s, which is not registered itself", path[len(path)-1], pkg)
		}
		for _, d := range deps {
			visit(d, append(path, pkg))
		}
		state[pkg] = black
	}
	for pkg := range layerImports {
		visit(pkg, nil)
	}
}

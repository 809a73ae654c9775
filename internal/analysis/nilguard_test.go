package analysis

import "testing"

func TestNilGuardFixture(t *testing.T) {
	checkFixture(t, NilGuard, loadFixture(t, "nilguard", "shadow/internal/obs/flight"))
}

// TestNilGuardScopedByPackage proves the check is keyed by package path:
// the same fixture under a non-obs path has nothing to guard.
func TestNilGuardScopedByPackage(t *testing.T) {
	pkg := loadFixture(t, "nilguard", "shadow/internal/dram")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{NilGuard}); len(diags) > 0 {
		t.Errorf("nilguard fired outside its configured packages: %v", diags)
	}
}

// TestNilGuardOnRealTypes runs the analyzer over the live obs and span
// packages: the shipped hot-path types must honor their own contract.
func TestNilGuardOnRealTypes(t *testing.T) {
	for _, dir := range []string{"obs", "obs/span"} {
		if diags := RunAnalyzers(loadInternal(t, dir), []*Analyzer{NilGuard}); len(diags) > 0 {
			for _, d := range diags {
				t.Errorf("%s violates the nil-safe contract: %v", dir, d)
			}
		}
	}
}

package analysis

import "testing"

// The determinism fixtures masquerade as internal/sim: the analyzer only
// polices the simulation packages.
func TestDeterminismFlagsViolations(t *testing.T) {
	checkFixture(t, Determinism, loadFixture(t, "determinism", "shadow/internal/sim"))
}

func TestDeterminismRestrictedToSimPackages(t *testing.T) {
	// Under its real (non-simulation) import path the same fixture is not
	// this analyzer's business: tooling may read the clock.
	pkg := loadFixture(t, "determinism", "")
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("determinism fired outside the simulation packages: %v", diags)
	}
}

// TestDeterminismCoversObs checks the observability layer is policed like
// any simulation package: the obsprobe fixture seeds instrumentation-shaped
// violations (wall-clock sample stamps, wall-time rates, global-rand
// sampling, unsorted registry dumps) and sanctioned patterns (tick-bucketed
// series, an injected clock func, keyed map writes, sort-after-append under
// a waiver).
func TestDeterminismCoversObs(t *testing.T) {
	checkFixture(t, Determinism, loadFixture(t, "obsprobe", "shadow/internal/obs"))
}

// TestDeterminismCoversSpanTracker checks the span tracker is policed like
// any simulation package: the spantrack fixture seeds span-shaped violations
// (wall-clock milestone stamps, wall-time residency, rand lane assignment,
// order-dependent stall folds) and sanctioned patterns (tick milestones,
// array-indexed cause sums, first-fit lanes, keyed map writes).
func TestDeterminismCoversSpanTracker(t *testing.T) {
	checkFixture(t, Determinism, loadFixture(t, "spantrack", "shadow/internal/obs/span"))
}

// TestDeterminismCoversHammer checks the fault model is policed like any
// simulation package: the hammerprobe fixture reads the global math/rand
// source inside an Activate-shaped method.
func TestDeterminismCoversHammer(t *testing.T) {
	checkFixture(t, Determinism, loadFixture(t, "hammerprobe", "shadow/internal/hammer"))
}

func TestDeterminismEveryRestrictedPackage(t *testing.T) {
	for path := range restrictedPkgs {
		pkg := loadFixture(t, "determinism", path)
		if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) == 0 {
			t.Errorf("determinism silent in restricted package %s", path)
		}
	}
}

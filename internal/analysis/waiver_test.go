package analysis

import (
	"strings"
	"testing"
)

// TestWaiverHygiene drives Options.CheckWaivers over the waiver fixture:
// justified+used directives stay silent, everything else becomes a finding.
func TestWaiverHygiene(t *testing.T) {
	pkg := loadFixture(t, "waiver", "shadow/internal/sim")
	diags := Run([]*Package{pkg}, []*Analyzer{Determinism}, Options{CheckWaivers: true})
	for _, d := range diags {
		if d.Analyzer != WaiverAnalyzerName {
			t.Errorf("suppression should have eaten every determinism finding, got %v", d)
		}
	}
	wantSubstrings := []string{
		"no justification",         // sumReasonless's reason-less directive
		"stale waiver",             // the directive above stale()
		"unknown analyzer",         // the typo'd name
		"waiver names no analyzer", // the bare directive
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d hygiene findings, want %d: %v", len(diags), len(wantSubstrings), diags)
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no hygiene finding containing %q in %v", want, diags)
		}
	}
}

// TestWaiverHygieneSubsetRuns: a waiver naming an analyzer that exists but
// did not run is left alone — fixture tests run subsets of the suite and
// must not flag each other's waivers.
func TestWaiverHygieneSubsetRuns(t *testing.T) {
	pkg := loadFixture(t, "waiver", "shadow/internal/sim")
	diags := Run([]*Package{pkg}, []*Analyzer{PanicMsg}, Options{CheckWaivers: true})
	for _, d := range diags {
		if strings.Contains(d.Message, "stale waiver") {
			t.Errorf("determinism did not run; its waivers cannot be judged stale: %v", d)
		}
	}
}

// TestRunParallelMatchesSequential: the parallel driver path must produce
// byte-identical, position-sorted output — shadowvet's output is diffed in
// CI, so scheduling may not leak into it.
func TestRunParallelMatchesSequential(t *testing.T) {
	fixtures := []struct{ name, path string }{
		{"panicmsg", ""},
		{"determinism", "shadow/internal/sim"},
		{"exhaustive", ""},
		{"nilguard", "shadow/internal/obs/flight"},
		{"allocflow", ""},
	}
	var pkgs []*Package
	for _, f := range fixtures {
		pkgs = append(pkgs, loadFixture(t, f.name, f.path))
	}
	seq := Run(pkgs, All(), Options{})
	par := Run(pkgs, All(), Options{Parallel: true})
	if len(seq) == 0 {
		t.Fatal("fixtures should produce findings")
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential %d findings, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("finding %d differs: sequential %v, parallel %v", i, seq[i], par[i])
		}
	}
}

// TestModuleCallGraphDeterminism: two fully independent loads of the same
// fixture tree (fresh loaders, fresh FileSets) must produce call graphs
// with identical node and edge ordering. The String() dump embeds file
// positions, which agree across loaders because the files on disk agree.
func TestModuleCallGraphDeterminism(t *testing.T) {
	build := func() string {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("loader: %v", err)
		}
		pkgs, err := l.LoadDir("testdata/src/allocflow")
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		m := &Module{Packages: pkgs}
		return m.CallGraph().String()
	}
	first := build()
	if first == "" {
		t.Fatal("empty call-graph dump")
	}
	if again := build(); again != first {
		t.Fatalf("independent loads differ:\n--- first\n%s\n--- again\n%s", first, again)
	}
}

package analysis

import (
	"strings"
	"testing"
)

func TestExhaustiveFixture(t *testing.T) {
	checkFixture(t, Exhaustive, loadFixture(t, "exhaustive", ""))
}

// TestExhaustiveMessage pins the diagnostic shape: the missing members are
// named in declaration order so the fix is mechanical.
func TestExhaustiveMessage(t *testing.T) {
	pkg := loadFixture(t, "exhaustive", "")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Exhaustive})
	var colorDiag string
	for _, d := range diags {
		if strings.Contains(d.Message, "exhaustive.color") {
			colorDiag = d.Message
		}
	}
	if colorDiag == "" {
		t.Fatalf("no finding names the local color enum: %v", diags)
	}
	if !strings.Contains(colorDiag, "missing colorBlue") {
		t.Errorf("finding should name the missing member, got %q", colorDiag)
	}
	if strings.Contains(colorDiag, "numColors") {
		t.Errorf("sentinel numColors must not be a required case, got %q", colorDiag)
	}
}

// TestExhaustiveOnRealEnums proves discovery sees the repository's actual
// closed enums through the type checker, imported or local.
func TestExhaustiveOnRealEnums(t *testing.T) {
	for _, dir := range []string{"obs/span", "memctrl", "timing", "exp"} {
		if diags := RunAnalyzers(loadInternal(t, dir), []*Analyzer{Exhaustive}); len(diags) > 0 {
			for _, d := range diags {
				t.Errorf("%s should be exhaustive-clean: %v", dir, d)
			}
		}
	}
}

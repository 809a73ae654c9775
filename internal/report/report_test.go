package report

import (
	"strings"
	"testing"
)

func TestBarChartBasics(t *testing.T) {
	c := &BarChart{Title: "demo", YMax: 1.0, MaxWidth: 10}
	c.Add("shadow", "2048", 0.99)
	c.Add("rrs", "2048", 0.5)
	c.Add("shadow", "4096", 1.0)
	out := c.String()
	for _, frag := range []string{"demo", "2048", "4096", "shadow", "rrs", "0.990", "0.500"} {
		if !strings.Contains(out, frag) {
			t.Errorf("chart missing %q:\n%s", frag, out)
		}
	}
	// A full-scale bar has MaxWidth filled cells; half-scale about half.
	lines := strings.Split(out, "\n")
	var full, half string
	for _, l := range lines {
		if strings.Contains(l, "1.000") {
			full = l
		}
		if strings.Contains(l, "0.500") {
			half = l
		}
	}
	if strings.Count(full, "█") != 10 {
		t.Errorf("full bar has %d cells: %q", strings.Count(full, "█"), full)
	}
	if n := strings.Count(half, "█"); n < 4 || n > 6 {
		t.Errorf("half bar has %d cells: %q", n, half)
	}
}

func TestBarChartAutoScale(t *testing.T) {
	c := &BarChart{MaxWidth: 20}
	c.Add("a", "x", 2)
	c.Add("a", "y", 4)
	out := c.String()
	var maxBar int
	for _, l := range strings.Split(out, "\n") {
		if n := strings.Count(l, "█"); n > maxBar {
			maxBar = n
		}
	}
	if maxBar != 20 {
		t.Fatalf("auto-scale max bar = %d, want 20", maxBar)
	}
	// Empty chart must not panic or divide by zero.
	empty := &BarChart{}
	if empty.String() != "" {
		t.Fatal("empty chart should render empty")
	}
	zero := &BarChart{}
	zero.Add("a", "x", 0)
	_ = zero.String()
}

func TestBarChartClamping(t *testing.T) {
	c := &BarChart{YMax: 1, MaxWidth: 10}
	c.Add("a", "x", 1.7) // above YMax: clamp, don't overflow
	out := c.String()
	if strings.Count(out, "█") != 10 {
		t.Fatalf("over-scale bar not capped:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{1, 0.78, 0.6, 0.36, 0.16, 0.04, 0.01})
	if len([]rune(s)) != 7 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '█' || runes[len(runes)-1] != '▁' {
		t.Fatalf("sparkline shape wrong: %s", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	// Constant input: all minimum glyphs, no division by zero.
	flat := Sparkline([]float64{3, 3, 3})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

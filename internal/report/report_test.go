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

func TestHistogram(t *testing.T) {
	h := Histogram("flips", map[string]int{"bank0": 4, "bank1": 2, "bank2": 0}, 8)
	for _, frag := range []string{"flips", "bank0", "bank1", "bank2", "4", "2", "0"} {
		if !strings.Contains(h, frag) {
			t.Errorf("histogram missing %q:\n%s", frag, h)
		}
	}
	lines := strings.Split(strings.TrimSpace(h), "\n")
	// Sorted by label, max bar 8 cells.
	if !strings.HasPrefix(lines[1], "bank0") {
		t.Fatalf("not sorted: %v", lines)
	}
	if strings.Count(lines[1], "█") != 8 {
		t.Fatalf("max bar wrong: %q", lines[1])
	}
}

func TestStripChartResample(t *testing.T) {
	// 8 values into 4 columns: pairwise means.
	vals := []float64{0, 2, 4, 4, 10, 0, 1, 3}
	got := resample(vals, 4)
	want := []float64{1, 4, 5, 2}
	if len(got) != len(want) {
		t.Fatalf("resample = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resample[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Short inputs pass through untouched.
	short := []float64{1, 2}
	if out := resample(short, 4); len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("short resample = %v", out)
	}
}

func TestStripChartString(t *testing.T) {
	c := &StripChart{Title: "rates", Span: "0 - 150us", Width: 10}
	c.Add("mc/rfms", []float64{0, 0, 5, 5, 0, 0, 20, 0})
	c.Add("shadow/shuffles", nil)
	out := c.String()
	for _, frag := range []string{
		"rates", "[0 - 150us]", "mc/rfms", "min=0", "max=20", "sum=30",
		"shadow/shuffles", "(no samples)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("strip chart missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected title + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	// Labels align: both rows start their sparkline at the same column.
	if !strings.HasPrefix(lines[1], "mc/rfms         ") {
		t.Fatalf("row not padded to widest label: %q", lines[1])
	}
	// The peak column renders the tallest glyph.
	if !strings.Contains(lines[1], "█") {
		t.Fatalf("peak glyph missing: %q", lines[1])
	}
}

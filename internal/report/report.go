// Package report renders experiment results as ASCII charts for terminal
// output — the closest offline equivalent of the paper's bar charts
// (Figures 8-12). It is deliberately dependency-free: a Series is just
// labeled values.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of (label, value) points.
type Series struct {
	Name   string
	Points []Point
}

// Point is one labeled value.
type Point struct {
	Label string
	Value float64
}

// BarChart renders grouped horizontal bars: one group per label, one bar per
// series, scaled to maxWidth characters at the maximum value.
type BarChart struct {
	Title string
	// YMax fixes the scale (0 = auto from data). Relative-performance charts
	// use 1.0 so bars read as fractions of baseline.
	YMax     float64
	MaxWidth int // bar width in characters (default 40)
	Series   []Series
}

// Add appends a point to the named series, creating it on first use.
func (c *BarChart) Add(series, label string, value float64) {
	for i := range c.Series {
		if c.Series[i].Name == series {
			c.Series[i].Points = append(c.Series[i].Points, Point{Label: label, Value: value})
			return
		}
	}
	c.Series = append(c.Series, Series{Name: series, Points: []Point{{Label: label, Value: value}}})
}

// labels returns the union of point labels in first-seen order.
func (c *BarChart) labels() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range c.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				out = append(out, p.Label)
			}
		}
	}
	return out
}

func (c *BarChart) value(series, label string) (float64, bool) {
	for _, s := range c.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.Label == label {
				return p.Value, true
			}
		}
	}
	return 0, false
}

// String renders the chart.
func (c *BarChart) String() string {
	width := c.MaxWidth
	if width <= 0 {
		width = 40
	}
	max := c.YMax
	if max <= 0 {
		for _, s := range c.Series {
			for _, p := range s.Points {
				max = math.Max(max, p.Value)
			}
		}
		if max <= 0 {
			max = 1
		}
	}

	nameW, labelW := 0, 0
	for _, s := range c.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	labels := c.labels()
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for _, label := range labels {
		fmt.Fprintf(&b, "%-*s\n", labelW, label)
		for _, s := range c.Series {
			v, ok := c.value(s.Name, label)
			if !ok {
				continue
			}
			n := int(v/max*float64(width) + 0.5)
			if n > width {
				n = width
			}
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-*s %s %.3f\n", nameW, s.Name, strings.Repeat("█", n)+strings.Repeat("·", width-n), v)
		}
	}
	return b.String()
}

// Sparkline renders a compact single-line trend of values using eighth-block
// glyphs, for decay curves and sweeps.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	min, max := values[0], values[0]
	for _, v := range values {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

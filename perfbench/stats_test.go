package main

import (
	"math"
	"testing"
)

// Expected values are Python's statistics.quantiles(v, n=4) and median(v).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q      [3]float64
		median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}, 2},
		{[]float64{0.7, 0.64, 0.72, 0.70, 0.65, 0.69, 0.71}, [3]float64{0.65, 0.7, 0.71}, 0.7},
	} {
		q := quartiles(c.v)
		for i := range q {
			if math.Abs(q[i]-c.q[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, q, c.q)
				break
			}
		}
		if m := median(c.v); math.Abs(m-c.median) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.v, m, c.median)
		}
	}
}

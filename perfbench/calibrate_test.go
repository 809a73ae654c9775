package main

import (
	"math"
	"testing"
)

func TestCalibrate(t *testing.T) {
	for _, workers := range []int{1, fig8Workers} {
		if s := calibrate(workers); !(s > 0) {
			t.Errorf("calibrate(%d) = %v, want a positive time", workers, s)
		}
	}
}

func TestScaled(t *testing.T) {
	r := rep{res: childResult{CalS: 2 * calRefS}}
	if got := scaled(3, r); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("3 s measured at half the reference speed scales to %v, want 1.5", got)
	}
}

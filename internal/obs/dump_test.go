package obs

import (
	"strings"
	"testing"
)

// TestHistogramQuantiles pins the upper-bound-of-bucket convention: each
// quantile reports the inclusive upper edge of the power-of-two bucket
// holding that quantile's sample, capped at the observed max.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 samples in bucket [8,15], 10 in bucket [1024,2047].
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1500)
	}
	if got := h.Quantile(0.50); got != 15 {
		t.Errorf("p50 = %d, want 15 (upper edge of [8,15])", got)
	}
	if got := h.Quantile(0.90); got != 15 {
		t.Errorf("p90 = %d, want 15", got)
	}
	if got := h.Quantile(0.95); got != 1500 {
		t.Errorf("p95 = %d, want 1500 (bucket edge 2047 capped at max)", got)
	}
	if got := h.Quantile(0.99); got != 1500 {
		t.Errorf("p99 = %d, want 1500", got)
	}

	// Degenerate and edge inputs.
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
	var one Histogram
	one.Observe(100)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 100 {
			t.Errorf("single-sample q%.1f = %d, want 100", q, got)
		}
	}
	var zero Histogram
	zero.Observe(0)
	if got := zero.Quantile(0.99); got != 0 {
		t.Errorf("zero-sample p99 = %d, want 0", got)
	}
	var neg Histogram
	neg.Observe(-5) // negatives clamp into bucket 0; max stays negative
	if got := neg.Quantile(0.5); got != -5 {
		t.Errorf("negative-sample p50 = %d, want -5 (capped at max)", got)
	}
}

// TestDumpIncludesQuantiles checks the JSON dump carries the documented
// p50/p95/p99 fields.
func TestDumpIncludesQuantiles(t *testing.T) {
	rec := NewRecorder(Options{Metrics: true})
	p := rec.NewTrack("run")
	for i := int64(1); i <= 100; i++ {
		p.Histogram("lat").Observe(i)
	}
	var js strings.Builder
	if err := rec.Metrics().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"p50": 63`, `"p95": 100`, `"p99": 100`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON dump missing %s:\n%s", want, js.String())
		}
	}
}

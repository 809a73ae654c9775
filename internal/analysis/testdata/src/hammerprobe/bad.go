// Package hammerprobe is a shadowvet test fixture for the row-hammer fault
// model. The test harness analyzes it under the import path
// shadow/internal/hammer, so the entropy read seeded below must be flagged:
// every ACT of a run charges its victims through Subarray.Activate.
package hammerprobe

import "math/rand" // want:determinism

// Subarray mirrors hammer.Subarray's disturbance state.
type Subarray struct {
	eff []float64
}

// Activate charges the aggressor's neighbours. A weight drawn from the
// global math/rand source makes a run's flips differ from run to run.
func (s *Subarray) Activate(r int) {
	for _, v := range [2]int{r - 1, r + 1} {
		if v >= 0 && v < len(s.eff) {
			s.eff[v] += rand.Float64() // want:determinism
		}
	}
}

package hammerprobe

// activateSeeded charges the neighbours by a fixed weight: no entropy, no
// finding.
func (s *Subarray) activateSeeded(r int, w float64) {
	for _, v := range [2]int{r - 1, r + 1} {
		if v >= 0 && v < len(s.eff) {
			s.eff[v] += w
		}
	}
}

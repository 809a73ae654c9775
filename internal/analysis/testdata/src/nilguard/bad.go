// Fixture for the nilguard analyzer. The package masquerades as
// shadow/internal/obs/flight (path override in the test), so the Ring and
// Watch types here stand in for the real hot-path types.
package nilguard

// Ring mirrors the nil-safe flight ring.
type Ring struct{ n int }

// Bump has no guard at all.
func (r *Ring) Bump() { // want:nilguard
	r.n++
}

// Late guards after work has already run on the receiver's behalf.
func (r *Ring) Late() int { // want:nilguard
	x := 1
	if r == nil {
		return x
	}
	return r.n + x
}

// Watch mirrors the watchdog set.
type Watch struct{ done bool }

// Wrong tests a different variable, not the receiver.
func (w *Watch) Wrong(other *Watch) { // want:nilguard
	if other == nil {
		return
	}
	w.done = true
}

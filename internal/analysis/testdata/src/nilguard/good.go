package nilguard

// Guard: the canonical early return.
func (r *Ring) Guard() {
	if r == nil {
		return
	}
	r.n++
}

// Enabled: a single return of the nil comparison.
func (r *Ring) Enabled() bool { return r != nil }

// Wrapped: all work inside the non-nil branch.
func (r *Ring) Wrapped(d int) {
	if r != nil {
		r.n += d
	}
}

// Compound: the receiver test shares the condition.
func (w *Watch) Compound() {
	if w == nil || w.done {
		return
	}
	w.done = true
}

// unexported methods are outside the exported-contract check.
func (w *Watch) bump() { w.done = true }

// Value receivers cannot be nil.
func (w Watch) Snapshot() bool { return w.done }

// helper is not one of the guarded types.
type helper struct{ n int }

// Bump on an unguarded type needs no guard.
func (x *helper) Bump() { x.n++ }

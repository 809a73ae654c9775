// Package flight is shadowflight: an always-on, fixed-capacity flight
// recorder for the simulator's hot-path event stream, plus the anomaly
// watchdogs that freeze and dump it.
//
// The Ring implements obs.EventSink: attached through obs.Options.Flight it
// receives every emitted event — DRAM commands with bank/row/tick, the
// mitigation actions (RFM, shuffle, incremental refresh, swap, throttle),
// faults, and span milestones — overwriting the oldest once full. Recording
// is zero-alloc and mutex-protected, so another goroutine can Snapshot the
// window concurrently with the simulation writer under -race.
//
// Watchdogs (watchdog.go) are invariant probes run off the hot path, at the
// progress cadence: span-conservation violation and bit-flip detection. The
// first trip freezes the ring, so the dump (dump.go: deterministic JSON, no
// wall-clock or host fields) preserves the event window that *led up to*
// the anomaly rather than whatever happened after it.
//
// Like the rest of the obs layer the package is nil-safe: a nil *Ring,
// *Watch, or *CmdHash is valid and inert, so callers wire them
// unconditionally.
package flight

import (
	"sync"

	"shadow/internal/obs"
)

// DefaultCapacity is the ring capacity used when none is given: deep enough
// to hold several refresh intervals' worth of commands around an anomaly,
// small enough (~0.3 MB) to leave always on.
const DefaultCapacity = 4096

// Ring is a fixed-capacity, overwrite-oldest event buffer. All methods are
// safe on a nil receiver and safe for concurrent use; Record is zero-alloc.
type Ring struct {
	mu     sync.Mutex
	buf    []obs.Event
	next   int  // index the next event lands on
	filled bool // buf has wrapped at least once
	total  int64
	frozen bool
	counts [obs.NumKinds]int64
}

// NewRing builds a ring holding the last capacity events (DefaultCapacity
// when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{buf: make([]obs.Event, capacity)}
}

// Record implements obs.EventSink: append e, overwriting the oldest event
// once the ring is full. No-op once frozen.
func (r *Ring) Record(e obs.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	r.total++
	if int(e.Kind) < len(r.counts) {
		r.counts[e.Kind]++
	}
}

// Freeze stops recording; subsequent Record calls are dropped so the
// current window survives until dumped. Idempotent.
func (r *Ring) Freeze() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
}

// Frozen reports whether the ring has been frozen.
func (r *Ring) Frozen() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen
}

// Snapshot returns the buffered events oldest-first. The slice is a copy;
// the writer may keep recording while the caller inspects it.
func (r *Ring) Snapshot() []obs.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.Event, 0, r.lenLocked())
	if r.filled {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns how many events the ring currently holds (≤ Cap).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *Ring) lenLocked() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many events have ever been recorded (including
// overwritten ones).
func (r *Ring) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// KindCount returns how many events of kind k have ever been recorded —
// counts survive overwriting, so watchdogs (flip detection) see every
// occurrence, not just those still buffered.
func (r *Ring) KindCount(k obs.Kind) int64 {
	if r == nil || int(k) >= int(obs.NumKinds) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[k]
}

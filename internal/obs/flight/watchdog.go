package flight

import (
	"fmt"
	"math/bits"

	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
)

// Check is one anomaly watchdog: a named invariant probe. Probe is called
// at the progress cadence (never on the command hot path) with the current
// simulated time and reports whether the invariant is violated, with a
// human-readable detail when it is.
type Check struct {
	Name  string
	Probe func(now timing.Tick) (detail string, tripped bool)
}

// Trip records the first watchdog violation of a run.
type Trip struct {
	Watchdog string `json:"watchdog"`
	Detail   string `json:"detail"`
	AtPS     int64  `json:"at_ps"`
}

// Watch runs a set of Checks against a Ring and freezes the ring on the
// first trip, preserving the event window that preceded the anomaly. A nil
// *Watch is valid and inert.
type Watch struct {
	ring   *Ring
	checks []Check
	trip   *Trip
	onTrip func(Trip)
}

// NewWatch builds a watch over ring (which may be nil: checks still run,
// there is just no window to freeze).
func NewWatch(ring *Ring) *Watch {
	return &Watch{ring: ring}
}

// Ring returns the watched ring.
func (w *Watch) Ring() *Ring {
	if w == nil {
		return nil
	}
	return w.ring
}

// Add registers a check. Checks run in registration order; the first to
// trip wins and later ones are never consulted again.
func (w *Watch) Add(c Check) {
	if w == nil || c.Probe == nil {
		return
	}
	w.checks = append(w.checks, c)
}

// OnTrip registers a hook invoked once, at the moment of the first trip
// (after the ring is frozen). Used by the cmd layer to log immediately
// rather than at run end.
func (w *Watch) OnTrip(fn func(Trip)) {
	if w == nil {
		return
	}
	w.onTrip = fn
}

// Check runs every registered check once. On the first violation it freezes
// the ring, records the Trip, and fires the OnTrip hook. Once tripped it
// returns the recorded trip without re-running anything, so the first
// anomaly's window is never disturbed by later ones.
func (w *Watch) Check(now timing.Tick) *Trip {
	if w == nil {
		return nil
	}
	if w.trip != nil {
		return w.trip
	}
	for _, c := range w.checks {
		detail, bad := c.Probe(now)
		if !bad {
			continue
		}
		t := Trip{Watchdog: c.Name, Detail: detail, AtPS: int64(now)}
		w.trip = &t
		w.ring.Freeze()
		if w.onTrip != nil {
			w.onTrip(t)
		}
		return w.trip
	}
	return nil
}

// Tripped returns the recorded trip, nil while all invariants hold.
func (w *Watch) Tripped() *Trip {
	if w == nil {
		return nil
	}
	return w.trip
}

// Conservation builds the span-conservation watchdog: it trips the moment
// the aggregate blame stops satisfying sum(Stall) == Resident. agg is
// polled each check (typically Tracker.Aggregate or a Collector merge).
func Conservation(agg func() span.Aggregate) Check {
	return Check{Name: "span-conservation", Probe: func(timing.Tick) (string, bool) {
		v := agg().Violation()
		return v, v != ""
	}}
}

// FlipDetector builds the bit-flip watchdog: it trips on the first Row
// Hammer flip the ring has recorded. Flip counts survive ring overwriting,
// so a flip is never missed even if its event has rotated out by the next
// check.
func FlipDetector(r *Ring) Check {
	return Check{Name: "bit-flip", Probe: func(timing.Tick) (string, bool) {
		n := r.KindCount(obs.KindFlip)
		if n == 0 {
			return "", false
		}
		return fmt.Sprintf("%d Row Hammer bit flip(s) recorded", n), true
	}}
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k (mod 2^64): k zero bytes folded at once.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// CmdHash accumulates an order-sensitive FNV-1a hash of a command log:
// feed it (kind, bank, row, at) from an OnCommand hook and compare Sums
// across runs of one point and seed (the fleet collector's divergence check
// and the whole-simulation fuzz target do). Not safe for concurrent
// use (commands are issued from the single simulation goroutine); a nil
// *CmdHash is valid and inert.
type CmdHash struct {
	sum uint64
}

// NewCmdHash returns an empty hash.
func NewCmdHash() *CmdHash { return &CmdHash{sum: fnvOffset} }

// Note folds one command into the hash: the four fields as 8-byte
// little-endian words, byte by byte (row as its low 32 bits). A zero byte's
// XOR leaves the state unchanged, so each word's high zero bytes fold into
// one multiply by fnvPrime^k; most bytes of a command are such zeros.
func (h *CmdHash) Note(kind, bank, row int, at timing.Tick) {
	if h == nil {
		return
	}
	s := h.sum
	for _, v := range [4]uint64{uint64(kind), uint64(bank), uint64(uint32(row)), uint64(at)} {
		n := (bits.Len64(v) + 7) / 8 // bytes up to the highest non-zero one
		for i := 0; i < n; i++ {
			s ^= (v >> (8 * i)) & 0xff
			s *= fnvPrime
		}
		s *= fnvPrimePow[8-n]
	}
	h.sum = s
}

// Sum returns the accumulated hash (the FNV-1a offset basis when empty).
func (h *CmdHash) Sum() uint64 {
	if h == nil {
		return fnvOffset
	}
	return h.sum
}

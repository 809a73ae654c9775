// Package obs is shadowscope: the simulator's deterministic observability
// layer — metrics (counters, gauges, power-of-two histograms) and a
// structured event sink capturing DRAM commands, RFM issues, SHADOW
// shuffles, RRS swaps, and BlockHammer throttle decisions.
//
// Two properties define the design:
//
//   - Determinism. Events carry *simulated* time (timing.Tick) and
//     instruments count simulated events; nothing in this package reads the
//     wall clock or any unseeded entropy source, so it passes the shadowvet
//     determinism analyzer and instrumented same-seed runs stay
//     bit-identical.
//
//   - Nil-safety. The off path costs one nil check: a nil *Probe, and every
//     instrument obtained from it, is valid and inert. Simulation code
//     stores instruments unconditionally and calls them on hot paths with
//     no branches of its own.
//
// A Recorder owns the collected data for one run and renders it through
// WriteChromeTrace (Perfetto-viewable trace-event JSON, one process track
// per Track, one thread track per bank) and the Metrics dump (WriteJSON).
// Probes are handed out per track (NewTrack); the simulator threads them
// through the memory controller, the DRAM device, and the mitigation
// schemes.
//
// A Recorder is not safe for concurrent use: attach it to one
// single-threaded simulation at a time (the experiment harness forces
// Workers=1 when probing for exactly this reason).
package obs

import "fmt"

// EventSink receives every emitted event, even when the growable event log
// (Options.Events) is off. The flight recorder (obs/flight.Ring) implements
// it with a fixed-capacity overwrite-oldest ring, which is why the tee runs
// unconditionally: a sink that cannot grow is safe to leave always on.
type EventSink interface {
	Record(Event)
}

// Options selects what a Recorder collects. The zero value collects
// nothing (useful only for benchmarks of the probe overhead itself).
type Options struct {
	// Metrics enables the instrument registry (counters, gauges,
	// histograms).
	Metrics bool
	// Events enables the structured event sink.
	Events bool
	// Flight, when non-nil, receives every emitted event regardless of
	// Events: the always-on flight recorder lane. The sink must be
	// bounded (overwrite-oldest); it is called on the simulation hot path.
	Flight EventSink
	// MaxEvents bounds the event sink's memory (default 1<<22 ≈ 4M
	// events); excess events are counted in Dropped, never silently lost.
	MaxEvents int
}

// Track is one top-level trace group (a Chrome trace "process"): one per
// simulation run, or one per experiment operating point. Its PID is its
// index in Recorder.Tracks.
type Track struct {
	PID  int
	Name string
}

// Recorder owns the observability data of one run.
type Recorder struct {
	opt     Options
	met     *Metrics
	events  []Event
	dropped int64
	tracks  []Track
}

// NewRecorder builds a recorder.
func NewRecorder(opt Options) *Recorder {
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = 1 << 22
	}
	r := &Recorder{opt: opt}
	if opt.Metrics {
		r.met = newMetrics()
	}
	return r
}

// NewTrack allocates a new top-level trace group and returns its probe.
// The track name prefixes every metric recorded through the probe, so
// multiple tracks (one per experiment operating point) never collide in the
// shared registry.
func (r *Recorder) NewTrack(name string) *Probe {
	pid := len(r.tracks)
	r.tracks = append(r.tracks, Track{PID: pid, Name: name})
	return &Probe{rec: r, pid: pid, prefix: name + "/"}
}

// Metrics returns the instrument registry (nil when metrics are disabled).
func (r *Recorder) Metrics() *Metrics { return r.met }

// Events returns the captured events in emission order.
func (r *Recorder) Events() []Event { return r.events }

// EventCount returns how many events have been captured so far.
func (r *Recorder) EventCount() int64 { return int64(len(r.events)) }

// Dropped returns how many events were discarded after MaxEvents.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Tracks returns the allocated trace groups.
func (r *Recorder) Tracks() []Track { return r.tracks }

func (r *Recorder) emit(e Event) {
	if r.opt.Flight != nil {
		r.opt.Flight.Record(e)
	}
	if !r.opt.Events {
		return
	}
	if len(r.events) >= r.opt.MaxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, e) //shadowvet:ignore allocflow -- event buffer bounded by MaxEvents; growth is amortized and stops at the cap
}

// trackName resolves a PID to its track's display name for trace metadata.
func (r *Recorder) trackName(pid int) string {
	if pid < len(r.tracks) {
		return r.tracks[pid].Name
	}
	return fmt.Sprintf("track %d", pid)
}

// Probe is the instrumentation handle threaded through the simulator. A
// nil *Probe is valid and disables everything; every method is safe on the
// nil receiver.
type Probe struct {
	rec    *Recorder
	pid    int
	prefix string
}

// Enabled reports whether the probe records anything at all.
func (p *Probe) Enabled() bool { return p != nil }

// EventsOn reports whether emitted events reach any sink — the growable
// event log or a flight recorder. Hot paths that build an Event per command
// may skip the construction entirely when it is false.
func (p *Probe) EventsOn() bool {
	return p != nil && (p.rec.opt.Events || p.rec.opt.Flight != nil)
}

// Emit records a structured event (no-op when events are disabled).
func (p *Probe) Emit(e Event) {
	if p == nil {
		return
	}
	e.PID = p.pid
	p.rec.emit(e)
}

// Counter returns (creating on first use) the named counter, nil-inert
// when the probe or the metrics registry is off.
func (p *Probe) Counter(name string) *Counter {
	if p == nil {
		return nil
	}
	return p.rec.met.Counter(p.prefix + name)
}

// Gauge returns the named gauge.
func (p *Probe) Gauge(name string) *Gauge {
	if p == nil {
		return nil
	}
	return p.rec.met.Gauge(p.prefix + name)
}

// Histogram returns the named histogram.
func (p *Probe) Histogram(name string) *Histogram {
	if p == nil {
		return nil
	}
	return p.rec.met.Histogram(p.prefix + name)
}

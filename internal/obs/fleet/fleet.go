// Package fleet is the live run inspector behind both CLIs' -inspect flag
// and shadowexp's -fleet-out. A Collector registers every worker of a
// shadowexp point fan-out (a shadowsim run is a one-worker, one-point
// fleet), merges snapshots of their obs metric registries into fleet-level
// series with worker/scheme/point labels, retains recent history in a
// bounded trend store, and runs fleet watchdogs — straggler, stalled-worker,
// and cross-worker divergence — on the flight recorder's trip-and-freeze
// pattern. Its Handler (inspect.go) serves the merged view live.
//
// The collector is passive: it starts no goroutine and reads no outside
// input. Sweep workers call its hooks from their own goroutines and hand
// Ingest their recorders, which it snapshots on the caller's goroutine; the
// blame and flight Sources are rendered there too, so they may read live
// simulation state without locking.
//
// Like the rest of the obs layer, the package is deterministic (no direct
// wall-clock reads — the Collector takes its clock injected from the cmd
// layer; every map iteration is sorted) and nil-safe (a nil *Collector or
// *Store is valid and inert).
package fleet

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/timing"
)

const (
	// refreshEvery is the minimum wall-time gap between metric snapshots of
	// one worker: PointProgress returns true at most this often.
	refreshEvery = time.Second
	// stragglerFactor is the straggler watchdog's K: an in-flight point
	// running longer than K times the median completed-point duration trips
	// it (it needs >= 3 completed points before it can trip).
	stragglerFactor = 4.0
	// stragglerFloor exempts short points: below a second of wall time, GC
	// and scheduling noise and the spread between a sweep's cheap and
	// expensive points (30x within one short fig8 sweep) exceed the factor.
	stragglerFloor = time.Second
	// stallIngests is the stalled-worker watchdog's M: a worker whose metric
	// snapshot has not changed at all across M consecutive ingests while a
	// point is in flight trips it.
	stallIngests = 5
)

// PointRecord is one completed operating point, as reported by a worker.
type PointRecord struct {
	Worker  string  `json:"worker"`
	Point   string  `json:"point"`
	Scheme  string  `json:"scheme"`
	Seed    uint64  `json:"seed"`
	CmdHash string  `json:"cmd_hash"`
	WallMS  float64 `json:"wall_ms"`
}

// worker is the registry entry for one fleet member.
type worker struct {
	id string

	// Current point, as reported by the sweep hooks.
	point  string
	scheme string
	seed   uint64
	now    timing.Tick
	total  timing.Tick
	done   bool // no point in flight

	startedAt  time.Time // wall time the current point started
	doneAt     time.Time // wall time the last point completed
	lastIngest time.Time

	events int64 // the recorder's trace-event count at the last ingest

	// metrics is the latest registry snapshot. Its Labels carry the
	// worker's id, scheme and point at ingest time — the identity stamped on
	// re-exposed samples (the live point may already have moved on).
	metrics obs.Snapshot

	// Stall detection: a fingerprint of the whole snapshot at the last
	// ingest, and how many consecutive ingests it has not changed while a
	// point was in flight. The fingerprint covers every instrument —
	// counters alone are too quiet a signal (a short benign run may never
	// increment dram/flips_total, the simulator's only counter), while a
	// live worker's gauges and latency histograms move on every snapshot.
	moveSig     uint64
	idleIngests int

	pointsDone int
}

// progressPct returns the worker's current-point progress in percent.
func (w *worker) progressPct() float64 {
	if w.done {
		return 100
	}
	if w.total <= 0 {
		return 0
	}
	return 100 * float64(w.now) / float64(w.total)
}

// Sources are the run-wide documents the inspector serves beside the
// fleet's own. Ingest renders them on the calling worker's goroutine, so
// they are meant for runs whose state one goroutine owns (a shadowsim run,
// a sequential sweep). A nil source serves an empty document.
type Sources struct {
	// Blame returns the rolling blame breakdown as JSON (/blame.json).
	Blame func() []byte
	// Flight writes the flight-recorder dump (/flight.json), e.g. a
	// flight.Watch.
	Flight interface{ WriteDump(io.Writer) error }
}

// Collector is the fleet registry and aggregation point. All methods are
// safe for concurrent use (hooks arrive from every sweep worker goroutine;
// HTTP handlers read snapshots) and safe on a nil receiver.
type Collector struct {
	mu    sync.Mutex
	clock func() time.Time
	src   Sources // set before the first hook, read-only after

	// The latest renders of src, taken by Ingest.
	blame, flight []byte

	workers map[string]*worker
	store   *Store
	watch   *flight.Watch

	startAt  time.Time // first activity; ETA regression origin
	expected int       // planned point count (0 = unknown)
	seq      int64     // Tick sequence, the trend time axis

	completed []PointRecord
	// completions records (wall seconds since startAt, cumulative count)
	// pairs for the ETA throughput regression.
	completions []completion

	// hashes detects cross-worker divergence: first (hash, worker) seen per
	// point+seed key.
	hashes    map[string]hashSeen
	divergent string // non-empty once two workers disagreed
}

type completion struct{ atSec, count float64 }

type hashSeen struct {
	hash   uint64
	worker string
}

// NewCollector builds a collector and arms the three fleet watchdogs. clock
// supplies wall time (time.Now in production, a fake in tests); the
// collector stamps point durations with it, so the fleet package itself
// stays free of wall-clock reads.
func NewCollector(clock func() time.Time) *Collector {
	if clock == nil {
		panic("fleet: NewCollector needs a clock (inject time.Now from the cmd layer)")
	}
	c := &Collector{
		clock:   clock,
		workers: map[string]*worker{},
		store:   NewStore(DefaultTrendCapacity),
		watch:   flight.NewWatch(nil),
		hashes:  map[string]hashSeen{},
	}
	// The probes run under c.mu (Tick holds it), so they read state directly.
	c.watch.Add(flight.Check{Name: "fleet-straggler", Probe: c.stragglerLocked})
	c.watch.Add(flight.Check{Name: "fleet-stalled-worker", Probe: c.stalledLocked})
	c.watch.Add(flight.Check{Name: "fleet-divergence", Probe: c.divergenceLocked})
	return c
}

// SetSources attaches the blame and flight sources. Call it before the
// first hook.
func (c *Collector) SetSources(src Sources) {
	if c == nil {
		return
	}
	c.src = src
}

// Watch exposes the fleet watchdogs (trip inspection, OnTrip hooks).
func (c *Collector) Watch() *flight.Watch {
	if c == nil {
		return nil
	}
	return c.watch
}

// ExpectPoints adds n to the planned point count (each experiment of a
// sweep announces its jobs as it starts). Drives fleet progress % and ETA.
func (c *Collector) ExpectPoints(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markStartedLocked()
	c.expected += n
}

// workerLocked returns the registry entry for id, adding it on first use.
func (c *Collector) workerLocked(id string) *worker {
	w := c.workers[id]
	if w == nil {
		w = &worker{id: id, done: true}
		c.workers[id] = w
	}
	return w
}

func (c *Collector) markStartedLocked() {
	if c.startAt.IsZero() {
		c.startAt = c.clock()
	}
}

// PointStart records that a worker began an operating point.
func (c *Collector) PointStart(id, point, scheme string, seed uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markStartedLocked()
	w := c.workerLocked(id)
	w.point, w.scheme, w.seed = point, scheme, seed
	w.now, w.total = 0, 0
	w.done = false
	w.idleIngests = 0
	w.startedAt = c.clock()
}

// PointProgress updates a worker's current-point progress. The return value
// asks the caller — who owns the worker's obs.Recorder and runs on that
// worker's goroutine — for a fresh Ingest: it is true at most once per
// second of wall time per worker.
func (c *Collector) PointProgress(id, point string, now, total timing.Tick) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workerLocked(id)
	w.now, w.total = now, total
	w.done = false
	wall := c.clock()
	if wall.Sub(w.lastIngest) < refreshEvery {
		return false
	}
	w.lastIngest = wall
	return true
}

// PointDone records a completed point: its wall duration (for the straggler
// median and the ETA regression) and its FNV command hash (for the
// cross-worker divergence watchdog).
func (c *Collector) PointDone(id, point, scheme string, seed, cmdHash uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workerLocked(id)
	wall := c.clock()
	var ms float64
	if !w.startedAt.IsZero() {
		ms = float64(wall.Sub(w.startedAt)) / float64(time.Millisecond)
	}
	w.done = true
	w.doneAt = wall
	w.point, w.scheme, w.seed = point, scheme, seed
	w.now = w.total
	w.pointsDone++
	w.idleIngests = 0
	c.completed = append(c.completed, PointRecord{
		Worker: id, Point: point, Scheme: scheme, Seed: seed,
		CmdHash: fmt.Sprintf("%#016x", cmdHash), WallMS: ms,
	})
	c.markStartedLocked()
	c.completions = append(c.completions, completion{
		atSec: wall.Sub(c.startAt).Seconds(),
		count: float64(len(c.completed)),
	})

	key := fmt.Sprintf("%s|%d", point, seed)
	if seen, ok := c.hashes[key]; ok {
		if seen.hash != cmdHash && c.divergent == "" {
			c.divergent = fmt.Sprintf("point %s seed %d: worker %s hash %#016x != worker %s hash %#016x",
				point, seed, seen.worker, seen.hash, id, cmdHash)
		}
	} else {
		c.hashes[key] = hashSeen{hash: cmdHash, worker: id}
	}
}

// Ingest snapshots a worker's recorder (its metric registry and event
// count) and replaces its stored snapshot, feeding the trend store and the
// stalled-worker detector, and re-renders the Sources. Call it from the
// goroutine that owns rec: everything is read there, before the collector's
// lock, and the collector never touches rec again. A nil rec ingests an
// empty registry.
func (c *Collector) Ingest(id string, rec *obs.Recorder) {
	if c == nil {
		return
	}
	var snap obs.Snapshot
	var events int64
	if rec != nil {
		snap = rec.Metrics().Snapshot()
		events = rec.EventCount()
	}
	var blame, flight []byte
	if c.src.Blame != nil {
		blame = c.src.Blame()
	}
	if c.src.Flight != nil {
		var b bytes.Buffer
		if c.src.Flight.WriteDump(&b) == nil {
			flight = b.Bytes()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markStartedLocked()
	c.blame, c.flight = blame, flight
	w := c.workerLocked(id)
	w.events = events
	snap.Labels = "," + obs.PromLabel("worker", id)
	if w.scheme != "" {
		snap.Labels += "," + obs.PromLabel("scheme", w.scheme)
	}
	if w.point != "" {
		snap.Labels += "," + obs.PromLabel("point", w.point)
	}
	w.metrics = snap
	w.lastIngest = c.clock()

	// A registry without instruments (a shared recorder that only traces or
	// feeds the flight ring) carries no liveness signal: never idle.
	live := len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) > 0
	sig := movementSig(snap)
	if live && !w.done && sig == w.moveSig {
		w.idleIngests++
	} else {
		w.idleIngests = 0
	}
	w.moveSig = sig

	c.store.Append("worker/"+id+"/progress", c.seq, w.progressPct())
	c.store.Append("worker/"+id+"/counter_total", c.seq, counterTotal(snap))
}

// movementSig fingerprints a snapshot (FNV-1a over every instrument name and
// value; a histogram's count and sum change on every observation): the
// liveness signal the stalled-worker watchdog compares across ingests. Two
// identical snapshots — a point whose simulation stopped updating its
// instruments — hash equal; any instrument changing anywhere counts as
// movement.
func movementSig(s obs.Snapshot) uint64 {
	h := fnv.New64a()
	for _, r := range s.Counters {
		fmt.Fprintf(h, "c %q %d\n", r.Name, r.Value)
	}
	for _, r := range s.Gauges {
		fmt.Fprintf(h, "g %q %d\n", r.Name, r.Value)
	}
	for i := range s.Histograms {
		r := &s.Histograms[i]
		fmt.Fprintf(h, "h %q %d %d\n", r.Name, r.Count(), r.Sum())
	}
	return h.Sum64()
}

// counterTotal sums every counter: the worker's counter_total trend.
func counterTotal(s obs.Snapshot) float64 {
	var total float64
	for _, r := range s.Counters {
		total += float64(r.Value)
	}
	return total
}

// Tick advances the fleet: appends the roll-up trends and runs the
// watchdogs once. Call it at the refresh cadence; the first trip
// freezes (the watch records it and later Ticks return it unchanged), so
// a divergence after another trip shows only in Divergence.
func (c *Collector) Tick() *flight.Trip {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.store.Append("fleet/points_done", c.seq, float64(len(c.completed)))
	c.store.Append("fleet/progress", c.seq, c.progressPctLocked())
	return c.watch.Check(timing.Tick(c.seq))
}

// progressPctLocked is the fleet-wide progress estimate: completed points
// plus the fractional progress of every in-flight point, over the expected
// total (or over completed+in-flight when no total was announced).
func (c *Collector) progressPctLocked() float64 {
	doing := 0.0
	inflight := 0
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		if !w.done && w.point != "" {
			inflight++
			doing += w.progressPct() / 100
		}
	}
	total := float64(c.expected)
	if total <= 0 {
		total = float64(len(c.completed) + inflight)
	}
	if total <= 0 {
		return 0
	}
	pct := 100 * (float64(len(c.completed)) + doing) / total
	if pct > 100 {
		pct = 100
	}
	return pct
}

// etaSecondsLocked estimates seconds until the sweep completes, from a
// least-squares regression of cumulative completed points over wall time:
// the slope is the fleet's point throughput, and remaining/slope the ETA. 0
// means "no estimate" (unknown total, fewer than 2 completions, or no
// forward progress).
func (c *Collector) etaSecondsLocked() float64 {
	if c.expected <= 0 || len(c.completions) < 2 {
		return 0
	}
	remaining := float64(c.expected - len(c.completed))
	if remaining <= 0 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(c.completions))
	for _, p := range c.completions {
		sx += p.atSec
		sy += p.count
		sxx += p.atSec * p.atSec
		sxy += p.atSec * p.count
	}
	den := n*sxx - sx*sx
	if den <= 0 {
		return 0
	}
	slope := (n*sxy - sx*sy) / den // points per second
	if slope <= 0 {
		return 0
	}
	return remaining / slope
}

// workerIDsLocked returns the registered worker ids, sorted.
func (c *Collector) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(ids)
	return ids
}

// Watchdog probes. All run with c.mu held (Tick holds it across
// watch.Check); they read collector state directly and never lock.

// stragglerLocked trips when an in-flight point has been running longer
// than stragglerFactor times the median completed-point wall duration and
// longer than stragglerFloor.
func (c *Collector) stragglerLocked(timing.Tick) (string, bool) {
	med := c.medianPointMSLocked()
	if med <= 0 || len(c.completed) < 3 {
		return "", false
	}
	limit := max(stragglerFactor*med, float64(stragglerFloor/time.Millisecond))
	wall := c.clock()
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		if w.done || w.point == "" || w.startedAt.IsZero() {
			continue
		}
		ms := float64(wall.Sub(w.startedAt)) / float64(time.Millisecond)
		if ms > limit {
			return fmt.Sprintf("worker %s point %s running %.0f ms > %.1fx median %.0f ms over %d completed points",
				id, w.point, ms, stragglerFactor, med, len(c.completed)), true
		}
	}
	return "", false
}

// stalledLocked trips when a worker's metric snapshot has not changed
// across stallIngests consecutive ingests while a point was in flight.
func (c *Collector) stalledLocked(timing.Tick) (string, bool) {
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		if w.done || w.idleIngests < stallIngests {
			continue
		}
		return fmt.Sprintf("worker %s point %s: metrics frozen across %d ingests",
			id, w.point, w.idleIngests), true
	}
	return "", false
}

// Divergence describes the first pair of workers that reported different
// command hashes for one point and seed, "" while all agree. Unlike the
// watch, which latches whichever watchdog tripped first, it always reports
// a divergence: a correctness failure, where the other trips are
// performance anomalies.
func (c *Collector) Divergence() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.divergent
}

// divergenceLocked trips once two workers reported different command hashes
// for the same point+seed.
func (c *Collector) divergenceLocked(timing.Tick) (string, bool) {
	return c.divergent, c.divergent != ""
}

// medianPointMSLocked is the median completed-point wall duration.
func (c *Collector) medianPointMSLocked() float64 {
	if len(c.completed) == 0 {
		return 0
	}
	ms := make([]float64, 0, len(c.completed))
	for _, r := range c.completed {
		ms = append(ms, r.WallMS)
	}
	sort.Float64s(ms)
	return ms[len(ms)/2]
}

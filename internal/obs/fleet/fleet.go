// Package fleet is the live run inspector behind both CLIs' -inspect flag
// and shadowexp's -fleet-out. A Collector registers every worker of a
// shadowexp point fan-out (a shadowsim run is a one-worker, one-point
// fleet), tracks each point's progress, keeps a record of every completed
// point with its command hash, and merges snapshots of the workers' obs
// metric registries into one exposition with worker/scheme/point labels and
// fleet-wide sums. Two workers that hash one point and seed differently
// make a divergence (Divergence), a correctness failure the sweep exits on.
// Its Handler (inspect.go) serves the merged view live.
//
// The collector is passive: it starts no goroutine and reads no outside
// input. Sweep workers call its hooks from their own goroutines and hand
// Ingest their recorders, which it snapshots on the caller's goroutine; the
// blame and flight Sources are rendered there too, so they may read live
// simulation state without locking.
//
// Like the rest of the obs layer, the package is deterministic (no direct
// wall-clock reads — the Collector takes its clock injected from the cmd
// layer; every map iteration is sorted) and nil-safe (a nil *Collector is
// valid and inert).
package fleet

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"shadow/internal/obs"
	"shadow/internal/timing"
)

// refreshEvery is the minimum wall-time gap between metric snapshots of one
// worker: PointProgress returns true at most this often.
const refreshEvery = time.Second

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

	workers  map[string]*worker
	expected int // planned point count (0 = unknown)

	completed []PointRecord

	// hashes detects cross-worker divergence: first (hash, worker) seen per
	// point+seed key.
	hashes    map[string]hashSeen
	divergent string // non-empty once two workers disagreed
}

type hashSeen struct {
	hash   uint64
	worker string
}

// NewCollector builds a collector. clock supplies wall time (time.Now in
// production, a fake in tests); the collector stamps point durations with
// it, so the fleet package itself stays free of wall-clock reads.
func NewCollector(clock func() time.Time) *Collector {
	if clock == nil {
		panic("fleet: NewCollector needs a clock (inject time.Now from the cmd layer)")
	}
	return &Collector{
		clock:   clock,
		workers: map[string]*worker{},
		hashes:  map[string]hashSeen{},
	}
}

// SetSources attaches the blame and flight sources. Call it before the
// first hook.
func (c *Collector) SetSources(src Sources) {
	if c == nil {
		return
	}
	c.src = src
}

// ExpectPoints adds n to the planned point count (each experiment of a
// sweep announces its jobs as it starts). Drives fleet progress %.
func (c *Collector) ExpectPoints(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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

// PointStart records that a worker began an operating point.
func (c *Collector) PointStart(id, point, scheme string, seed uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workerLocked(id)
	w.point, w.scheme, w.seed = point, scheme, seed
	w.now, w.total = 0, 0
	w.done = false
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

// PointDone records a completed point: its wall duration and its FNV
// command hash, which it compares with the first record of the same point
// and seed (Divergence).
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
	c.completed = append(c.completed, PointRecord{
		Worker: id, Point: point, Scheme: scheme, Seed: seed,
		CmdHash: fmt.Sprintf("%#016x", cmdHash), WallMS: ms,
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
// count), replaces its stored snapshot, and re-renders the Sources. Call it
// from the goroutine that owns rec: everything is read there, before the
// collector's lock, and the collector never touches rec again. A nil rec
// ingests an empty registry.
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

// workerIDsLocked returns the registered worker ids, sorted.
func (c *Collector) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(ids)
	return ids
}

// Divergence describes the first pair of workers that reported different
// command hashes for one point and seed, "" while all agree. A divergence is
// a correctness failure: one of the two runs was not deterministic, or two
// distinct points share a label.
func (c *Collector) Divergence() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.divergent
}

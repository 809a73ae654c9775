package fleet

import "sort"

// The embedded time-series store: every refresh appends one raw
// sample per tracked series (worker progress, fleet counter totals, flips),
// and the dashboard renders the retained window as sparkline trends. The
// discipline matches the flight recorder's ring: memory is fixed at
// construction and never grows. Instead of overwriting the oldest point,
// though, a full trend halves itself — adjacent pairs merge into their mean —
// and doubles its stride (how many raw samples condense into one stored
// point). The stored window therefore always spans the whole run: the ring
// trades resolution for range in power-of-two steps, never truncating the
// left edge the way overwrite-oldest would. Old points are still overwritten
// in place by the compaction, so the capacity bound is as hard as the
// flight ring's.

// DefaultTrendCapacity holds ~4 minutes of 1 s refreshes at full resolution
// per series, compacting to 8-minute resolution-halved windows and so on.
const DefaultTrendCapacity = 256

// TrendPoint is one stored sample: At is the collector's Tick sequence
// number (or any caller-supplied monotonic instant) of the first raw sample
// the point condenses; V is the mean of its raw samples.
type TrendPoint struct {
	At int64   `json:"at"`
	V  float64 `json:"v"`
}

// trend is one bounded series.
type trend struct {
	cap    int
	stride int // raw samples per stored point; doubles on each compaction
	accN   int
	accAt  int64
	acc    float64
	pts    []TrendPoint
}

// add folds one raw sample in, compacting when the ring fills.
func (t *trend) add(at int64, v float64) {
	if t.accN == 0 {
		t.accAt = at
	}
	t.accN++
	t.acc += v
	if t.accN < t.stride {
		return
	}
	t.pts = append(t.pts, TrendPoint{At: t.accAt, V: t.acc / float64(t.accN)})
	t.accN, t.acc = 0, 0
	if len(t.pts) < t.cap {
		return
	}
	// Power-of-two downsample: merge adjacent pairs in place, keeping each
	// pair's first instant and mean value.
	half := len(t.pts) / 2
	for i := 0; i < half; i++ {
		a, b := t.pts[2*i], t.pts[2*i+1]
		t.pts[i] = TrendPoint{At: a.At, V: (a.V + b.V) / 2}
	}
	t.pts = t.pts[:half]
	t.stride *= 2
}

// Store holds the bounded trend series, keyed by name. A nil *Store is valid
// and inert, matching the obs-layer contract. Store is not internally
// locked: the Collector owns one and serializes access under its own mutex.
type Store struct {
	cap    int
	series map[string]*trend
}

// NewStore builds a store whose series each hold up to capacity points
// (DefaultTrendCapacity when capacity <= 0; odd capacities round up so the
// pairwise compaction is exact).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultTrendCapacity
	}
	if capacity%2 == 1 {
		capacity++
	}
	return &Store{cap: capacity, series: map[string]*trend{}}
}

// Append folds one raw sample into the named series, creating it on first
// use.
func (s *Store) Append(name string, at int64, v float64) {
	if s == nil {
		return
	}
	t := s.series[name]
	if t == nil {
		t = &trend{cap: s.cap, stride: 1}
		s.series[name] = t
	}
	t.add(at, v)
}

// Trend returns a copy of the named series' stored points, oldest first
// (nil when the series does not exist).
func (s *Store) Trend(name string) []TrendPoint {
	if s == nil {
		return nil
	}
	t := s.series[name]
	if t == nil {
		return nil
	}
	return append([]TrendPoint(nil), t.pts...)
}

// Stride returns how many raw samples condense into one stored point of the
// named series (0 when the series does not exist).
func (s *Store) Stride(name string) int {
	if s == nil {
		return 0
	}
	t := s.series[name]
	if t == nil {
		return 0
	}
	return t.stride
}

// Names returns every series name, sorted.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(names)
	return names
}

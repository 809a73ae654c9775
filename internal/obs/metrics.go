package obs

import (
	"math"
	"math/bits"
	"sort"

	"shadow/internal/timing"
)

// Metrics is the instrument registry: named counters, gauges, histograms,
// and time series, created on first use. A nil *Metrics is valid and hands
// out nil (inert) instruments.
type Metrics struct {
	interval timing.Tick
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

func newMetrics(interval timing.Tick) *Metrics {
	return &Metrics{
		interval: interval,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		series:   map[string]*Series{},
	}
}

// SampleInterval returns the bucket width shared by every time series.
func (m *Metrics) SampleInterval() timing.Tick {
	if m == nil {
		return 0
	}
	return m.interval
}

// Counter returns (creating on first use) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Series returns (creating on first use) the named time series.
func (m *Metrics) Series(name string) *Series {
	if m == nil {
		return nil
	}
	s := m.series[name]
	if s == nil {
		s = &Series{interval: m.interval}
		m.series[name] = s
	}
	return s
}

// LookupSeries returns the named series without creating it (nil if absent).
func (m *Metrics) LookupSeries(name string) *Series {
	if m == nil {
		return nil
	}
	return m.series[name]
}

// LookupHistogram returns the named histogram without creating it.
func (m *Metrics) LookupHistogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.hists[name]
}

// SeriesNames returns every registered series name, sorted.
func (m *Metrics) SeriesNames() []string {
	if m == nil {
		return nil
	}
	return sortedKeysSeries(m.series)
}

// Snapshot is a point-in-time copy of a registry's counters, gauges and
// histograms, each list sorted by instrument name. It shares no memory with
// the registry, so the goroutine that owns a registry can take one and hand
// it to another (the fleet collector) without further locking. Labels, when
// set, is a pre-rendered label suffix (`,key="value"...`, built with
// PromLabel) that WriteExposition appends to every sample's label set.
type Snapshot struct {
	Counters   []Reading
	Gauges     []Reading
	Histograms []HistogramReading
	Labels     string
}

// Reading is one counter or gauge value.
type Reading struct {
	Name  string
	Value int64
}

// HistogramReading is a copy of one histogram.
type HistogramReading struct {
	Name string
	Histogram
}

// Snapshot copies every counter, gauge and histogram. A nil registry yields
// an empty snapshot.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	for _, name := range sortedKeysCounter(m.counters) {
		s.Counters = append(s.Counters, Reading{Name: name, Value: m.counters[name].Value()})
	}
	for _, name := range sortedKeysGauge(m.gauges) {
		s.Gauges = append(s.Gauges, Reading{Name: name, Value: m.gauges[name].Value()})
	}
	for _, name := range sortedKeysHistogram(m.hists) {
		s.Histograms = append(s.Histograms, HistogramReading{Name: name, Histogram: *m.hists[name]})
	}
	return s
}

func sortedKeysCounter(m map[string]*Counter) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysGauge(m map[string]*Gauge) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysHistogram(m map[string]*Histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysSeries(m map[string]*Series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Strings(keys)
	return keys
}

// Counter is a monotonic int64 count. Nil-inert.
type Counter struct{ v int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v += d
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-written int64 value. Nil-inert.
type Gauge struct{ v int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last written value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is one bucket per possible bit length of an int64 value,
// plus bucket 0 for values <= 0: bucket i counts values in
// [2^(i-1), 2^i - 1].
const histBuckets = 65

// Histogram is a power-of-two-bucketed distribution of int64 samples
// (latencies in ticks, queue depths, hit streaks). Nil-inert.
type Histogram struct {
	count, sum int64
	min, max   int64
	buckets    [histBuckets]int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx]++
}

// Merge adds every sample of o into h. All histograms share the same
// power-of-two buckets, so a bucket-wise add yields exactly the histogram of
// both sample sets.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the inclusive upper edge of the power-of-two bucket holding the sample of
// rank ceil(q*count), capped at the observed maximum. The convention is
// conservative — the true quantile is never underestimated — and documented
// in the metrics dumps, which carry p50/p95/p99 under it. Returns 0 when
// empty (or on a nil receiver).
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum < rank {
			continue
		}
		if i == 0 {
			// Bucket 0 holds values <= 0; its upper edge is 0, tightened to
			// Max when every sample is negative.
			if h.max < 0 {
				return h.max
			}
			return 0
		}
		hi := int64(math.MaxInt64)
		if i < 63 {
			hi = int64(1)<<i - 1
		}
		if hi > h.max {
			hi = h.max
		}
		return hi
	}
	return h.max
}

// Bucket is one non-empty histogram bucket covering [Lo, Hi].
type Bucket struct {
	Lo, Hi int64
	Count  int64
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = int64(1) << (i - 1)
			b.Hi = b.Lo<<1 - 1
		}
		out = append(out, b)
	}
	return out
}

// Series is a fixed-interval time series over simulated time: Add(now, v)
// accumulates v into the bucket now/interval, so the values are sums per
// interval (rates, stall time, instruction counts). Nil-inert.
type Series struct {
	interval timing.Tick
	vals     []float64
}

// Add accumulates v into the bucket covering simulated time now.
func (s *Series) Add(now timing.Tick, v float64) {
	if s == nil {
		return
	}
	i := int(now / s.interval)
	for len(s.vals) <= i {
		s.vals = append(s.vals, 0) //shadowvet:ignore allocflow -- per-interval series growth is amortized doubling; the dynamic gate stays at 0 allocs/op
	}
	s.vals[i] += v
}

// Interval returns the bucket width.
func (s *Series) Interval() timing.Tick {
	if s == nil {
		return 0
	}
	return s.interval
}

// Values returns the per-interval sums (bucket i covers
// [i*Interval, (i+1)*Interval)).
func (s *Series) Values() []float64 {
	if s == nil {
		return nil
	}
	return s.vals
}

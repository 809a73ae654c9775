package obs

import (
	"encoding/json"
	"io"
)

// metricsDump is the JSON shape of a metrics export. Maps marshal with
// sorted keys, so the output is byte-deterministic.
type metricsDump struct {
	SampleIntervalPS int64                    `json:"sample_interval_ps"`
	Counters         map[string]int64         `json:"counters,omitempty"`
	Gauges           map[string]int64         `json:"gauges,omitempty"`
	Histograms       map[string]histogramDump `json:"histograms,omitempty"`
	Series           map[string][]float64     `json:"series,omitempty"`
}

type histogramDump struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P95/P99 follow the upper-bound-of-bucket convention (see
	// Histogram.Quantile): each is the inclusive upper edge of the
	// power-of-two bucket holding that quantile's sample, capped at Max —
	// a conservative estimate that never understates the true quantile.
	P50     int64        `json:"p50"`
	P95     int64        `json:"p95"`
	P99     int64        `json:"p99"`
	Buckets []bucketDump `json:"buckets,omitempty"`
}

type bucketDump struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

func (m *Metrics) dump() metricsDump {
	d := metricsDump{SampleIntervalPS: int64(m.interval)}
	if len(m.counters) > 0 {
		d.Counters = make(map[string]int64, len(m.counters))
		for _, k := range sortedKeysCounter(m.counters) {
			d.Counters[k] = m.counters[k].Value()
		}
	}
	if len(m.gauges) > 0 {
		d.Gauges = make(map[string]int64, len(m.gauges))
		for _, k := range sortedKeysGauge(m.gauges) {
			d.Gauges[k] = m.gauges[k].Value()
		}
	}
	if len(m.hists) > 0 {
		d.Histograms = make(map[string]histogramDump, len(m.hists))
		for _, k := range sortedKeysHistogram(m.hists) {
			h := m.hists[k]
			hd := histogramDump{
				Count: h.Count(), Sum: h.Sum(),
				Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
			for _, b := range h.Buckets() {
				hd.Buckets = append(hd.Buckets, bucketDump{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
			}
			d.Histograms[k] = hd
		}
	}
	if len(m.series) > 0 {
		d.Series = make(map[string][]float64, len(m.series))
		for _, k := range sortedKeysSeries(m.series) {
			d.Series[k] = m.series[k].Values()
		}
	}
	return d
}

// WriteJSON dumps every instrument as indented JSON. Safe on a nil registry
// (writes an empty document).
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.dump())
}

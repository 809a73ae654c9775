package flight

import (
	"encoding/json"
	"io"
)

// EventDump is one buffered event in the dump: simulated picoseconds only,
// kinds spelled out, empty fields omitted. No wall-clock or host fields —
// same-seed runs produce byte-identical dumps.
type EventDump struct {
	AtPS  int64  `json:"at_ps"`
	DurPS int64  `json:"dur_ps,omitempty"`
	Kind  string `json:"kind"`
	PID   int    `json:"pid,omitempty"`
	TID   int    `json:"tid,omitempty"`
	Bank  int    `json:"bank"`
	Row   int    `json:"row"`
	Aux   int64  `json:"aux,omitempty"`
	Label string `json:"label,omitempty"`
}

// Dump is the serialized flight recorder: the ring's state plus the trip
// that froze it, if any.
type Dump struct {
	Capacity int `json:"capacity"`
	// Total counts every event ever recorded; Total - len(Events) of them
	// have been overwritten.
	Total  int64 `json:"events_total"`
	Frozen bool  `json:"frozen"`
	Trip   *Trip `json:"trip,omitempty"`
	// Events is the preserved window, oldest first.
	Events []EventDump `json:"events"`
}

// BuildDump snapshots r (oldest-first) into a Dump carrying trip. Safe on a
// nil ring: the result is a valid empty dump.
func BuildDump(r *Ring, trip *Trip) Dump {
	events := r.Snapshot()
	d := Dump{
		Capacity: r.Cap(),
		Total:    r.Total(),
		Frozen:   r.Frozen(),
		Trip:     trip,
		Events:   make([]EventDump, 0, len(events)),
	}
	for _, e := range events {
		d.Events = append(d.Events, EventDump{
			AtPS:  int64(e.At),
			DurPS: int64(e.Dur),
			Kind:  e.Kind.String(),
			PID:   e.PID,
			TID:   e.TID,
			Bank:  e.Bank,
			Row:   e.Row,
			Aux:   e.Aux,
			Label: e.Label,
		})
	}
	return d
}

// WriteDump writes the ring as deterministic, indented JSON.
func WriteDump(w io.Writer, r *Ring, trip *Trip) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildDump(r, trip))
}

// WriteDump writes the watch's ring and trip as deterministic JSON — the
// form the cmd layer writes and the live inspector's /flight.json serves.
func (w *Watch) WriteDump(out io.Writer) error {
	if w == nil {
		return WriteDump(out, nil, nil)
	}
	return WriteDump(out, w.ring, w.trip)
}

package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Event streams can be exported to CSV and replayed later, so a workload can
// be captured once (or produced by an external tool) and fed to the
// simulator reproducibly. The format is one event per record:
//
//	gap,bank,row,col,write
//
// with a header row. WriteEvents/ReadEvents round-trip exactly.

// WriteEvents exports n events from gen to w.
func WriteEvents(w io.Writer, gen Generator, n int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"gap", "bank", "row", "col", "write"}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		e := gen.Next()
		rec := []string{
			strconv.Itoa(e.Gap),
			strconv.Itoa(e.Bank),
			strconv.Itoa(e.Row),
			strconv.Itoa(e.Col),
			strconv.FormatBool(e.Write),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadEvents parses an exported event stream.
func ReadEvents(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty event file")
	}
	if len(recs[0]) != 5 || recs[0][0] != "gap" {
		return nil, fmt.Errorf("trace: bad header %v", recs[0])
	}
	events := make([]Event, 0, len(recs)-1)
	for i, rec := range recs[1:] {
		var e Event
		var err error
		if e.Gap, err = strconv.Atoi(rec[0]); err != nil {
			return nil, fmt.Errorf("trace: record %d gap: %w", i+1, err)
		}
		if e.Bank, err = strconv.Atoi(rec[1]); err != nil {
			return nil, fmt.Errorf("trace: record %d bank: %w", i+1, err)
		}
		if e.Row, err = strconv.Atoi(rec[2]); err != nil {
			return nil, fmt.Errorf("trace: record %d row: %w", i+1, err)
		}
		if e.Col, err = strconv.Atoi(rec[3]); err != nil {
			return nil, fmt.Errorf("trace: record %d col: %w", i+1, err)
		}
		if e.Write, err = strconv.ParseBool(rec[4]); err != nil {
			return nil, fmt.Errorf("trace: record %d write: %w", i+1, err)
		}
		if e.Gap < 1 || e.Bank < 0 || e.Row < 0 || e.Col < 0 {
			return nil, fmt.Errorf("trace: record %d out of range: %+v", i+1, e)
		}
		events = append(events, e)
	}
	return events, nil
}

// ClampEvents folds events into a target geometry (bank and row counts),
// so a trace recorded on one organization replays on another. Returns the
// number of events that needed folding.
func ClampEvents(events []Event, banks, rowsPerBank int) int {
	folded := 0
	for i := range events {
		if events[i].Bank >= banks || events[i].Row >= rowsPerBank {
			folded++
		}
		events[i].Bank %= banks
		events[i].Row %= rowsPerBank
	}
	return folded
}

// Replay is a Generator over a recorded event list, looping when exhausted
// (simulations run for a time horizon, not an event count).
type Replay struct {
	name   string
	events []Event
	i      int
	// Loops counts completed passes over the recording.
	Loops int
}

var _ Generator = (*Replay)(nil)

// NewReplay wraps recorded events as a generator.
func NewReplay(name string, events []Event) (*Replay, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: replay needs at least one event")
	}
	return &Replay{name: name, events: events}, nil
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Next implements Generator.
func (r *Replay) Next() Event {
	e := r.events[r.i]
	r.i++
	if r.i == len(r.events) {
		r.i = 0
		r.Loops++
	}
	return e
}

package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing consume). ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// tidOf maps a bank index to a trace thread: tid 0 is the rank (bank -1),
// bank i is tid i+1.
func tidOf(bank int) int { return bank + 1 }

// eventTID resolves an event's trace thread: an explicit TID (request-span
// lanes) wins, otherwise the bank-per-thread default.
func eventTID(e Event) int {
	if e.TID != 0 {
		return e.TID
	}
	return tidOf(e.Bank)
}

// threadName names a trace thread for metadata: the rank, a bank, or a
// request lane.
func threadName(tid int) string {
	if tid >= reqTIDBase {
		core, lane := (tid-reqTIDBase)/ReqLanes, (tid-reqTIDBase)%ReqLanes
		return "core " + itoa(core) + " lane " + itoa(lane)
	}
	if tid > 0 {
		return "bank " + itoa(tid-1)
	}
	return "rank"
}

// ticksToUS converts picosecond ticks to trace microseconds.
func ticksToUS(t int64) float64 { return float64(t) / 1e6 }

// WriteChromeTrace renders the captured events as Chrome trace-event JSON,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing: one process
// per track, one thread per bank, duration slices ("X") for
// commands with service time and thread-scoped instants ("i") otherwise.
// The output is byte-deterministic for a deterministic event stream.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := func(first *bool, ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !*first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		*first = false
		_, err = bw.Write(b)
		return err
	}
	first := true

	// Metadata: name every (pid, tid) pair that appears, sorted.
	pairs := make([]int64, 0, len(r.events))
	for _, e := range r.events {
		pairs = append(pairs, int64(e.PID)<<20|int64(eventTID(e)))
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	lastPID := -1
	var lastPair int64 = -1
	for _, pair := range pairs {
		if pair == lastPair {
			continue
		}
		lastPair = pair
		pid, tid := int(pair>>20), int(pair&(1<<20-1))
		if pid != lastPID {
			lastPID = pid
			if err := enc(&first, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": r.trackName(pid)},
			}); err != nil {
				return err
			}
		}
		if err := enc(&first, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": threadName(tid)},
		}); err != nil {
			return err
		}
	}

	for _, e := range r.events {
		name := e.Kind.String()
		if e.Label != "" {
			name = e.Label
		}
		ce := chromeEvent{
			Name: name,
			Cat:  e.Kind.Category(),
			Ts:   ticksToUS(int64(e.At)),
			PID:  e.PID,
			TID:  eventTID(e),
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = ticksToUS(int64(e.Dur))
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		ce.Args = eventArgs(e)
		if err := enc(&first, ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// eventArgs builds the kind-specific argument map shown in the trace UI's
// detail pane. json.Marshal emits map keys sorted, keeping output
// deterministic.
func eventArgs(e Event) map[string]any {
	args := map[string]any{}
	if e.Row >= 0 {
		args["row"] = e.Row
	}
	switch e.Kind {
	case KindSwap:
		args["partner_row"] = e.Aux
	case KindShuffle, KindFlip:
		args["subarray"] = e.Aux
	case KindThrottle:
		args["min_gap_ps"] = int64(e.Dur)
	case KindSpan:
		args["bank"] = e.Bank
		args["stall_ps"] = e.Aux
	default:
		// The plain command kinds carry no extra operand beyond row.
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// itoa is strconv.Itoa without the import (keeps the hot-path file lean).
func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

package obs

import (
	"fmt"

	"shadow/internal/timing"
)

// Kind classifies a structured event.
type Kind uint8

// Event kinds: the DRAM command stream plus the mitigation decisions and
// faults the paper's diagnosis needs time-resolved.
const (
	// DRAM commands, as issued by the memory controller.
	KindACT Kind = iota
	KindPRE
	KindRD
	KindWR
	KindREF
	KindRFM
	// Mitigation actions.
	KindShuffle    // SHADOW row-shuffle (Row is the sampled aggressor PA row; Aux its subarray)
	KindIncRefresh // SHADOW incremental refresh (Row is the refreshed DA row)
	KindSwap       // RRS row swap (Row/Aux are the PA rows; Dur the channel-blocking time)
	KindThrottle   // BlockHammer throttle decision (Dur is the enforced minimum ACT gap)
	// Faults.
	KindFlip // Row Hammer bit flip (Row is the victim DA row; Aux its subarray)
	// Request lifecycle (shadowtap spans): one duration event per completed
	// memory request on a per-core lane track (Aux is the attributed stall;
	// Label names the dominant cause).
	KindSpan

	// NumKinds sizes per-kind arrays (the flight recorder's kind counts);
	// it is a count sentinel, not an event kind.
	NumKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindACT:
		return "ACT"
	case KindPRE:
		return "PRE"
	case KindRD:
		return "RD"
	case KindWR:
		return "WR"
	case KindREF:
		return "REF"
	case KindRFM:
		return "RFM"
	case KindShuffle:
		return "shuffle"
	case KindIncRefresh:
		return "inc-refresh"
	case KindSwap:
		return "swap"
	case KindThrottle:
		return "throttle"
	case KindFlip:
		return "flip"
	case KindSpan:
		return "req"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Category groups kinds for trace filtering: "cmd", "mitigation", "fault",
// "req".
func (k Kind) Category() string {
	switch k {
	case KindACT, KindPRE, KindRD, KindWR, KindREF, KindRFM:
		return "cmd"
	case KindFlip:
		return "fault"
	case KindSpan:
		return "req"
	default: // KindShuffle, KindIncRefresh, KindSwap, KindThrottle
		return "mitigation"
	}
}

// Event is one structured observation. Zero Dur means an instant.
type Event struct {
	At   timing.Tick
	Dur  timing.Tick
	Kind Kind
	// PID is the trace group (the track's index), filled by Probe.Emit.
	PID int
	// TID overrides the trace thread; 0 derives it from Bank (the default
	// bank-per-thread layout). Request spans use ReqTID lanes.
	TID int
	// Bank is the bank index, -1 for rank-level commands (all-bank REF).
	Bank int
	// Row is the kind-specific row (-1 when not applicable).
	Row int
	// Aux carries the kind-specific extra operand; see the Kind comments.
	Aux int64
	// Label overrides the rendered event name (empty = Kind.String()); span
	// events use it to color slices by dominant stall cause.
	Label string
}

// Request-span lane layout: completed request spans render on per-core
// "lane" threads so overlapping requests appear as parallel flame rows.
// reqTIDBase keeps the lane thread IDs clear of any realistic bank count.
const (
	reqTIDBase = 1 << 12
	// ReqLanes is the number of flame rows per core (matching the default
	// MSHR-bounded memory-level parallelism).
	ReqLanes = 8
)

// ReqTID returns the trace thread ID of a core's request lane.
func ReqTID(core, lane int) int { return reqTIDBase + core*ReqLanes + lane }

package mitigate

import (
	"shadow/internal/rng"
	"shadow/internal/timing"
)

// RRS is Randomized Row-Swap (Saileshwar et al., ASPLOS 2022), the prior
// row-shuffle baseline: a Misra-Gries-family tracker at the MC detects rows
// crossing the swap threshold (H_cnt/6 in the paper's favorable
// configuration) and swaps their contents with a uniformly random row of the
// same bank. Because the swap moves data over the memory channel, the
// channel is blocked for multiple microseconds per swap — the overhead
// SHADOW's in-DRAM copies avoid (Section III-A).
type RRS struct {
	cfg   RRSConfig
	src   rng.Source
	banks map[int]*rrsBank

	// Stats
	Swaps int64
}

type rrsBank struct {
	tracker   *Tracker
	toPhys    map[int]int // logical (core-visible) row -> physical row
	toLogical map[int]int // inverse
	lastReset timing.Tick
}

// RRSConfig sizes the scheme.
type RRSConfig struct {
	// SwapThreshold is the tracked count that triggers a swap (H_cnt/6).
	SwapThreshold int64
	// RowsPerBank bounds the random partner choice.
	RowsPerBank int
	// TrackerEntries sizes the per-bank Misra-Gries table.
	TrackerEntries int
	// SwapLatency is how long one swap blocks the channel (>= 4 us per the
	// paper's discussion of RRS).
	SwapLatency timing.Tick
	// REFW resets tracker state every refresh window.
	REFW timing.Tick
	Seed uint64
}

var _ MCSide = (*RRS)(nil)

// NewRRS returns the row-swap policy.
func NewRRS(cfg RRSConfig) *RRS {
	if cfg.SwapThreshold <= 0 {
		panic("mitigate: RRS needs a positive swap threshold")
	}
	if cfg.TrackerEntries == 0 {
		cfg.TrackerEntries = 1024
	}
	if cfg.SwapLatency == 0 {
		cfg.SwapLatency = 4 * timing.Microsecond
	}
	return &RRS{cfg: cfg, src: rng.NewCSPRNG(cfg.Seed), banks: make(map[int]*rrsBank)}
}

// Name implements MCSide.
func (r *RRS) Name() string { return "rrs" }

func (r *RRS) bank(id int) *rrsBank {
	b, ok := r.banks[id]
	if !ok {
		b = &rrsBank{
			tracker:   NewTracker(r.cfg.TrackerEntries),
			toPhys:    make(map[int]int),
			toLogical: make(map[int]int),
		}
		r.banks[id] = b
	}
	return b
}

// TranslateRow implements MCSide: the row indirection table.
func (r *RRS) TranslateRow(bank, paRow int) int {
	b := r.bank(bank)
	if p, ok := b.toPhys[paRow]; ok {
		return p
	}
	return paRow
}

// ACTAllowedAt implements MCSide (RRS does not throttle).
func (r *RRS) ACTAllowedAt(bank, paRow int, now timing.Tick) timing.Tick { return now }

// NextEventAt implements MCSide: RRS swaps are triggered by ACT counts, and
// an in-flight swap already blocks the channel until its end.
func (r *RRS) NextEventAt(timing.Tick) timing.Tick { return timing.Forever }

// OnACT implements MCSide: count the *physical* row (aggression follows the
// physical location) and trigger a swap at the threshold. The returned
// request names physical rows; the MC moves the data and stalls the channel.
func (r *RRS) OnACT(bank, paRow int, now timing.Tick) *SwapRequest {
	b := r.bank(bank)
	if r.cfg.REFW > 0 && now-b.lastReset >= r.cfg.REFW {
		b.tracker.Reset()
		b.lastReset += (now - b.lastReset) / r.cfg.REFW * r.cfg.REFW
	}
	phys := r.TranslateRow(bank, paRow)
	if b.tracker.Observe(phys) < r.cfg.SwapThreshold {
		return nil
	}
	// Swap with a uniformly random other physical row of the bank.
	partner := rng.Intn(r.src, r.cfg.RowsPerBank-1)
	if partner >= phys {
		partner++
	}
	r.swap(b, phys, partner)
	b.tracker.Remove(phys)
	b.tracker.Remove(partner)
	r.Swaps++
	return &SwapRequest{Bank: bank, RowA: phys, RowB: partner, BlockFor: r.cfg.SwapLatency}
}

// swap updates the indirection table: the logical rows resident at physical
// rows pa and pb exchange locations.
func (r *RRS) swap(b *rrsBank, pa, pb int) {
	la, oka := b.toLogical[pa]
	if !oka {
		la = pa
	}
	lb, okb := b.toLogical[pb]
	if !okb {
		lb = pb
	}
	setMap := func(logical, phys int) {
		if logical == phys {
			delete(b.toPhys, logical)
			delete(b.toLogical, phys)
			return
		}
		b.toPhys[logical] = phys
		b.toLogical[phys] = logical
	}
	// Clear stale inverse entries before rewriting.
	delete(b.toLogical, pa)
	delete(b.toLogical, pb)
	setMap(la, pb)
	setMap(lb, pa)
}

// MappingOf returns the logical->physical overrides of a bank (tests).
func (r *RRS) MappingOf(bank int) map[int]int {
	out := make(map[int]int)
	for l, p := range r.bank(bank).toPhys {
		out[l] = p
	}
	return out
}

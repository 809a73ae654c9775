package shadow

import (
	"fmt"

	"shadow/internal/dram"
	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/rng"
	"shadow/internal/timing"
)

// Options configures a SHADOW controller.
type Options struct {
	// PairDistance selects the subarray-pairing geometry: 1 pairs adjacent
	// subarrays (even/odd); 2 pairs subarrays that sandwich another, the
	// open-bitline arrangement of Section V-B.
	PairDistance int
	// Seed seeds the PRINCE CSPRNG that samples Row_aggr and selects
	// Row_rand.
	Seed uint64
	// DisableIncrementalRefresh turns off the incremental refresh step
	// (ablation only; the paper's protection analysis assumes it on).
	DisableIncrementalRefresh bool
	// Probe, when set, records shuffle and incremental-refresh events plus a
	// shuffle-rate series (shadowscope).
	Probe *obs.Probe
}

// Stats counts the controller's mitigation work.
type Stats struct {
	Shuffles     int64 // row-shuffle operations executed
	IncRefreshes int64 // incremental refresh activations
	SampledACTs  int64 // activations observed for reservoir sampling
	IdleRFMs     int64 // RFMs with no activation since the previous RFM
	RemapReads   int64 // remapping-row entry reads (every ACT costs one)
	RemapWrites  int64 // remapping-row update bursts (one per shuffle)
}

// bankState is the per-bank part of the controller: the recent-activation
// ring the aggressor is sampled from ("randomly selected among recent RAAIMT
// numbers of activated rows", Section IV-B) and which subarray tables have
// been initialized. The remapping tables themselves live in DRAM rows.
type bankState struct {
	recent     []int // PA rows of the activations since the last RFM
	tablesInit []bool
}

// Controller implements dram.Mitigator with the SHADOW scheme.
type Controller struct {
	opt Options
	src *rng.CSPRNG
	// banks holds each bank's state by bank ID; nil until the bank's first
	// use. Every Translate and OnACT looks its bank up here.
	banks []*bankState
	// tab is the remapping-row layout, computed once for geo, the geometry
	// of the first bank served; every later bank must share it.
	tab Table
	geo dram.Geometry

	probe        *obs.Probe
	shuffleCount *obs.Counter

	Stats Stats
}

var _ dram.Mitigator = (*Controller)(nil)

// New returns a SHADOW controller.
func New(opt Options) *Controller {
	if opt.PairDistance == 0 {
		opt.PairDistance = 1
	}
	c := &Controller{opt: opt, src: rng.NewCSPRNG(opt.Seed)}
	c.SetProbe(opt.Probe)
	return c
}

// SetProbe (re)attaches shadowscope instrumentation; sim calls it for
// mitigators built before the probe existed. A nil probe detaches.
func (c *Controller) SetProbe(p *obs.Probe) {
	c.probe = p
	c.shuffleCount = p.Counter("shadow/shuffles")
}

// Name implements dram.Mitigator.
func (c *Controller) Name() string { return "shadow" }

// RFMBlame implements span.Attributor: SHADOW spends its RFM windows
// shuffling rows and incrementally refreshing, so shadowtap attributes the
// resulting ACT holds to shuffle work rather than generic RFM.
func (c *Controller) RFMBlame() span.Cause { return span.CauseShuffle }

// PairOf returns the subarray paired with sub: the subarray whose
// remapping-row stores sub's mapping. Pairing is an involution.
func (c *Controller) PairOf(sub, totalSubs int) int {
	d := c.opt.PairDistance
	group := 2 * d
	base := sub - sub%group
	off := sub % group
	p := base + (off+d)%group
	if p >= totalSubs { // odd tail: pair with self (degenerate, tiny geometries)
		return sub
	}
	return p
}

func (c *Controller) state(b *dram.Bank) *bankState {
	if id := b.ID(); id < len(c.banks) && c.banks[id] != nil {
		return c.banks[id]
	}
	return c.newState(b)
}

// newState builds bank b's state on its first use.
func (c *Controller) newState(b *dram.Bank) *bankState {
	id := b.ID()
	for len(c.banks) <= id {
		c.banks = append(c.banks, nil)
	}
	cap := b.Params().RAAIMT
	if cap <= 0 {
		cap = 64
	}
	s := &bankState{
		recent:     make([]int, 0, cap),
		tablesInit: make([]bool, b.Geometry().SubarraysPerBank),
	}
	c.banks[id] = s
	return s
}

// table returns the Table layout and the encoded payload holding sub's
// mapping (in the paired subarray's remapping-row), initializing the
// identity mapping on first use. The payload is looked up on every call, not
// kept: a write to the remapping-row (a refresh restore, a row copy, an
// injected fault) may replace it, and translation must read what the row
// holds.
func (c *Controller) table(b *dram.Bank, sub int) (Table, []byte) {
	g := b.Geometry()
	if g != c.geo {
		c.setLayout(g)
	}
	pair := c.PairOf(sub, g.SubarraysPerBank)
	data := b.Subarray(pair).RemapRow().Bytes(g.RowBytes)
	st := c.state(b)
	if !st.tablesInit[sub] {
		c.tab.InitIdentity(data)
		st.tablesInit[sub] = true
	}
	return c.tab, data
}

// setLayout computes the remapping-row layout for geometry g, once: the
// controller serves banks of one geometry.
func (c *Controller) setLayout(g dram.Geometry) {
	if c.tab.slots != 0 {
		panic(fmt.Sprintf("shadow: bank geometry %+v differs from %+v, which the remap-table layout was computed for", g, c.geo))
	}
	if g.ExtraRows != 1 {
		panic(fmt.Sprintf("shadow: geometry must provision exactly one empty row per subarray, got %d", g.ExtraRows))
	}
	t := NewTable(g.DARowsPerSubarray())
	if t.Bytes() > g.RowBytes {
		panic(fmt.Sprintf("shadow: remap table (%dB) exceeds row size (%dB)", t.Bytes(), g.RowBytes))
	}
	c.tab, c.geo = t, g
}

// Translate implements dram.Mitigator: every ACT first reads the
// remapping-row of the paired subarray (costing tRD_RM, already folded into
// the device's EffectiveRCD) to find the DA row holding the PA row's data.
func (c *Controller) Translate(b *dram.Bank, paRow int) (int, int) {
	sub, idx := b.Geometry().SubarrayOf(paRow)
	t, data := c.table(b, sub)
	c.Stats.RemapReads++
	return sub, t.Slot(data, idx)
}

// OnACT implements dram.Mitigator: remember the activation in the per-bank
// recent-ACT ring the aggressor will be drawn from. The ring never exceeds
// RAAIMT entries because the MC issues an RFM (which drains it) at RAAIMT;
// if RFMs are deferred toward RAAMMT the oldest entries are overwritten.
func (c *Controller) OnACT(b *dram.Bank, paRow, sub, da int, now timing.Tick) {
	st := c.state(b)
	c.Stats.SampledACTs++
	if len(st.recent) < cap(st.recent) {
		st.recent = append(st.recent, paRow)
		return
	}
	// Ring full: overwrite pseudo-round-robin, keeping the window recent.
	st.recent[int(c.Stats.SampledACTs)%len(st.recent)] = paRow
}

// NextEventAt implements dram.Mitigator: SHADOW's shuffles happen strictly
// inside the RFM windows the controller's RAA counters schedule; the scheme
// has no timer of its own.
func (c *Controller) NextEventAt(timing.Tick) timing.Tick { return timing.Forever }

// OnRFM implements dram.Mitigator: perform the incremental refresh and the
// row-shuffle of Section IV within tRFM (the device holds the bank busy; the
// remapping-row update in the paired subarray is fully hidden behind the
// row-copies, Section VI-B).
func (c *Controller) OnRFM(b *dram.Bank, now timing.Tick) {
	st := c.state(b)
	if len(st.recent) == 0 {
		// No activity since the last RFM (can only happen with MC-side
		// policies that issue periodic RFMs); nothing to shuffle.
		c.Stats.IdleRFMs++
		return
	}
	aggr := st.recent[rng.Intn(c.src, len(st.recent))]
	st.recent = st.recent[:0]

	g := b.Geometry()
	sub, aggrIdx := g.SubarrayOf(aggr)
	t, data := c.table(b, sub)

	// (2) Incremental refresh: activate the DA row the pointer names, then
	// advance it round-robin over the subarray's DA space.
	if !c.opt.DisableIncrementalRefresh {
		ptr := t.IncrPtr(data)
		b.InternalActivate(sub, ptr)
		t.SetIncrPtr(data, (ptr+1)%g.DARowsPerSubarray())
		c.Stats.IncRefreshes++
		if c.probe != nil {
			c.probe.Emit(obs.Event{
				At: now, Kind: obs.KindIncRefresh, Bank: b.ID(), Row: ptr, Aux: int64(sub),
			})
		}
	}

	// (3) Row-shuffle: two row-copies through Row_empt.
	randIdx := rng.Intn(c.src, g.RowsPerSubarray-1)
	if randIdx >= aggrIdx {
		randIdx++ // uniform over slots != aggrIdx
	}
	daAggr := t.Slot(data, aggrIdx)
	daRand := t.Slot(data, randIdx)
	daEmpt := t.Slot(data, t.EmptySlot())

	mustCopy(b, sub, daRand, daEmpt, now) // Row_rand -> Row_empt
	mustCopy(b, sub, daAggr, daRand, now) // Row_aggr -> old Row_rand

	// (4) Remapping-row write: the new mapping.
	t.SetSlot(data, randIdx, daEmpt)
	t.SetSlot(data, aggrIdx, daRand)
	t.SetSlot(data, t.EmptySlot(), daAggr)
	c.Stats.Shuffles++
	c.Stats.RemapWrites++
	if c.probe != nil {
		c.probe.Emit(obs.Event{
			At: now, Kind: obs.KindShuffle, Bank: b.ID(), Row: aggr, Aux: int64(sub),
		})
		c.shuffleCount.Inc()
	}
}

func mustCopy(b *dram.Bank, sub, src, dst int, now timing.Tick) {
	if err := b.RowCopy(sub, src, dst, now); err != nil {
		// RowCopy only fails on protocol violations (open bank, self-copy),
		// which indicate a controller bug, not a runtime condition.
		panic(fmt.Sprintf("shadow: row copy failed: %v", err))
	}
}

// MappingOf decodes the current PA-slot -> DA mapping of one subarray, for
// tests, experiments, and the attack examples.
func (c *Controller) MappingOf(b *dram.Bank, sub int) []int {
	t, data := c.table(b, sub)
	return t.Mapping(data)
}

// CheckInvariants verifies every initialized subarray's table is still a
// permutation — the correctness condition for data never being lost.
func (c *Controller) CheckInvariants(b *dram.Bank) error {
	st := c.state(b)
	for sub, ok := range st.tablesInit {
		if !ok {
			continue
		}
		t, data := c.table(b, sub)
		if err := t.CheckPermutation(data); err != nil {
			return fmt.Errorf("bank %d subarray %d: %w", b.ID(), sub, err)
		}
	}
	return nil
}

package dram

import (
	"fmt"

	"shadow/internal/hammer"
	"shadow/internal/timing"
)

// Subarray is one 2D cell mat: its device-addressable rows (PA rows plus the
// extra rows SHADOW provisions), its remapping-row (physically present in
// every subarray; used only when SHADOW pairs it), and the hammer tracker
// covering the ordinary rows. Disturbance never crosses subarrays (threat
// model item 3), which is why the tracker lives here.
//
// Its per-row state costs 12 bytes a row and is built on first use. The
// hammer tracker (4 bytes a row) waits for the first ACT or row copy: a
// refresh of a subarray without one has no pressure to clear, and a
// subarray whose remapping-row SHADOW only reads gets none. The seed table
// (8 bytes a row) waits for the first write of row data (a flip, a row copy
// or swap, or a payload read), each row seeded with its power-on pattern.
// An integrity check reads an unbuilt table's seeds without building it. A
// row's payload bytes live apart and are allocated only when they
// materialize (a flip, a payload read, or a copy of a materialized row), so
// a copy of an unmaterialized row moves 8 bytes.
type Subarray struct {
	seeds  []uint64         // pattern seed per DA row; nil until the first write
	data   map[int][]byte   // materialized payloads by DA row
	hammer *hammer.Subarray // nil until the first Hammer call
	remap  Row
	bank   *Bank
	idx    int
}

// row returns DA row da: its seed and, once materialized, its payload. It
// builds nothing.
func (s *Subarray) row(da int) Row {
	if s.seeds == nil {
		return Row{seed: rowSeed(s.bank.id, s.idx, da)}
	}
	return Row{seed: s.seeds[da], data: s.data[da]}
}

// setRow stores r as DA row da, building the seed table on first use.
func (s *Subarray) setRow(da int, r Row) {
	if s.seeds == nil {
		s.seeds = make([]uint64, s.bank.geo.DARowsPerSubarray()) //shadowvet:ignore allocflow -- first-touch lazy seed table build, once per subarray whose data a run writes
		for i := range s.seeds {
			s.seeds[i] = rowSeed(s.bank.id, s.idx, i)
		}
	}
	s.seeds[da] = r.seed
	switch {
	case r.data == nil:
		delete(s.data, da)
	case s.data == nil:
		s.data = map[int][]byte{da: r.data} //shadowvet:ignore allocflow -- the subarray's first materialized payload (a flip or a payload read), a rare model event
	default:
		s.data[da] = r.data //shadowvet:ignore allocflow -- a row's payload materializes once; later copies reuse its buffer
	}
}

// flipBit inverts one bit of DA row da, materializing its payload.
func (s *Subarray) flipBit(da, bit int) {
	r := s.row(da)
	r.FlipBit(bit, s.bank.geo.RowBytes)
	s.setRow(da, r)
}

// bytes materializes and returns DA row da's payload. The returned slice is
// the row's backing store; mutations persist.
func (s *Subarray) bytes(da int) []byte {
	r := s.row(da)
	b := r.Bytes(s.bank.geo.RowBytes)
	s.setRow(da, r)
	return b
}

// Hammer returns the subarray's hammer tracker, building it on first use.
func (s *Subarray) Hammer() *hammer.Subarray {
	if s.hammer == nil {
		s.hammer = hammer.NewSubarray(s.bank.geo.DARowsPerSubarray(), s.bank.hcfg)
	}
	return s.hammer
}

// RemapRow returns the subarray's remapping-row payload.
func (s *Subarray) RemapRow() *Row { return &s.remap }

// Bank is one DRAM bank: subarrays plus the JEDEC state machine. All
// timing-checked entry points take the current time and return a
// *TimingError if the command violates a constraint.
type Bank struct {
	id   int
	geo  Geometry
	p    *timing.Params
	hcfg hammer.Config

	subs []*Subarray // lazily allocated

	// State machine.
	open       bool
	openSub    int
	openDA     int
	rdReadyAt  timing.Tick // ACT + tRCD'
	preReadyAt timing.Tick // max(ACT+tRAS, RD+tRTP, WR+WL+BL+tWR)
	actReadyAt timing.Tick // PRE + tRP, or REF/RFM completion
	busyUntil  timing.Tick // REF/RFM in progress

	refreshPtr int // next DA row (bank-linear) for auto-refresh

	// RAA is the Rolling Accumulated ACT counter of the RFM interface. The
	// MC mirrors it; the device keeps the authoritative copy.
	RAA int

	Stats BankStats
	// flips counts the bank's bit flips over the whole run (Stats.Flips
	// restarts with a measurement window) and spreads their bit positions.
	flips int64

	flipSink func(bankID, sub, da int, f hammer.Flip)
}

// BankStats counts the commands a bank executed.
type BankStats struct {
	Acts, Reads, Writes, Pres, RefRows, RFMs int64
	RowCopies                                int64
	Flips                                    int64
}

// TimingError reports a command issued before the bank was ready.
type TimingError struct {
	Cmd     string
	Bank    int
	Now     timing.Tick
	ReadyAt timing.Tick
}

func (e *TimingError) Error() string {
	return fmt.Sprintf("dram: bank %d: %s at %v before ready time %v", e.Bank, e.Cmd, e.Now, e.ReadyAt)
}

func newBank(id int, geo Geometry, p *timing.Params, hcfg hammer.Config) *Bank {
	return &Bank{
		id:   id,
		geo:  geo,
		p:    p,
		hcfg: hcfg,
		subs: make([]*Subarray, geo.SubarraysPerBank),
	}
}

// ID returns the bank's index within its rank.
func (b *Bank) ID() int { return b.id }

// Params returns the timing parameters the bank operates under.
func (b *Bank) Params() *timing.Params { return b.p }

// Geometry returns the rank geometry.
func (b *Bank) Geometry() Geometry { return b.geo }

// Subarray returns subarray s, allocating it on first use (its tracker
// and seed table wait for their own first use).
func (b *Bank) Subarray(s int) *Subarray {
	if s < 0 || s >= len(b.subs) {
		panic(fmt.Sprintf("dram: bank %d subarray %d out of range [0,%d)", b.id, s, len(b.subs)))
	}
	if b.subs[s] == nil {
		sa := &Subarray{bank: b, idx: s} //shadowvet:ignore allocflow -- first-touch lazy subarray build, warm before steady state
		sa.remap.SetSeed(rowSeed(b.id, s, -1))
		b.subs[s] = sa
	}
	return b.subs[s]
}

// rowSeed derives the initial data seed for a row: a function of its initial
// identity so integrity checks can recompute it.
func rowSeed(bank, sub, da int) uint64 {
	return uint64(bank)<<40 ^ uint64(sub)<<20 ^ uint64(uint32(da)) ^ 0xABCD_EF01_2345_6789
}

// InitialSeed returns the pattern seed a PA row held at power-on under the
// identity mapping — the reference for integrity checks.
func (b *Bank) InitialSeed(paRow int) uint64 {
	sub, idx := b.geo.SubarrayOf(paRow)
	return rowSeed(b.id, sub, idx)
}

// Open reports whether a row is open, and which (sub, da) if so.
func (b *Bank) Open() (sub, da int, ok bool) {
	return b.openSub, b.openDA, b.open
}

// ready returns the earliest time the named command may issue.
func (b *Bank) readyForACT() timing.Tick { return maxTick(b.actReadyAt, b.busyUntil) }

// Activate opens DA row (sub, da) at time now, applying the hammer model.
func (b *Bank) Activate(sub, da int, now timing.Tick) error {
	if b.open {
		return &TimingError{Cmd: "ACT (bank open)", Bank: b.id, Now: now, ReadyAt: b.preReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	if r := b.readyForACT(); now < r {
		return &TimingError{Cmd: "ACT", Bank: b.id, Now: now, ReadyAt: r} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b.open = true
	b.openSub, b.openDA = sub, da
	b.rdReadyAt = now + b.p.EffectiveRCD()
	b.preReadyAt = now + b.p.RAS
	b.Stats.Acts++
	b.RAA++
	b.recordACT(sub, da)
	return nil
}

// recordACT applies the fault model for an activation of (sub, da) and
// physically flips bits for any victims that cross H_cnt.
func (b *Bank) recordACT(sub, da int) {
	sa := b.Subarray(sub)
	for _, f := range sa.Hammer().Activate(da) {
		b.Stats.Flips++
		b.flips++
		// Deterministic-but-spread bit position derived from the flip count.
		bit := int((uint64(f.Row)*2654435761 + uint64(b.flips)*40503) % uint64(b.geo.RowBytes*8))
		sa.flipBit(f.Row, bit)
		if b.flipSink != nil {
			b.flipSink(b.id, sub, f.Row, f) //shadowvet:ignore allocflow -- flip observer hook, nil unless tracing; flips are rare model events outside the steady-state contract
		}
	}
}

// Read performs a column read from the open row.
func (b *Bank) Read(now timing.Tick) error {
	if !b.open {
		return &TimingError{Cmd: "RD (bank closed)", Bank: b.id, Now: now, ReadyAt: timing.Forever} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	if now < b.rdReadyAt {
		return &TimingError{Cmd: "RD", Bank: b.id, Now: now, ReadyAt: b.rdReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b.preReadyAt = maxTick(b.preReadyAt, now+b.p.RTP)
	b.Stats.Reads++
	return nil
}

// Write performs a column write to the open row.
func (b *Bank) Write(now timing.Tick) error {
	if !b.open {
		return &TimingError{Cmd: "WR (bank closed)", Bank: b.id, Now: now, ReadyAt: timing.Forever} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	if now < b.rdReadyAt {
		return &TimingError{Cmd: "WR", Bank: b.id, Now: now, ReadyAt: b.rdReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b.preReadyAt = maxTick(b.preReadyAt, now+b.p.WL+b.p.BL+b.p.WR)
	b.Stats.Writes++
	return nil
}

// Precharge closes the open row.
func (b *Bank) Precharge(now timing.Tick) error {
	if !b.open {
		// Precharge on a closed bank is a legal no-op per JEDEC.
		return nil
	}
	if now < b.preReadyAt {
		return &TimingError{Cmd: "PRE", Bank: b.id, Now: now, ReadyAt: b.preReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b.open = false
	b.actReadyAt = now + b.p.RP
	b.Stats.Pres++
	return nil
}

// NextACTReady returns when the next ACT may issue (for MC scheduling).
func (b *Bank) NextACTReady() timing.Tick {
	if b.open {
		return timing.Forever
	}
	return b.readyForACT()
}

// NextRDReady returns when a RD/WR may issue on the open row.
func (b *Bank) NextRDReady() timing.Tick {
	if !b.open {
		return timing.Forever
	}
	return b.rdReadyAt
}

// NextPREReady returns when a PRE may issue.
func (b *Bank) NextPREReady() timing.Tick {
	if !b.open {
		return timing.Forever
	}
	return b.preReadyAt
}

// Busy blocks the bank until `until` (REF and RFM service time).
func (b *Bank) setBusy(until timing.Tick) {
	b.busyUntil = maxTick(b.busyUntil, until)
	b.actReadyAt = maxTick(b.actReadyAt, until)
}

// BusyUntil reports when the current REF/RFM completes.
func (b *Bank) BusyUntil() timing.Tick { return b.busyUntil }

// NextDeadline returns the end of the bank's current REF/RFM busy
// window — the next device-side instant at which this bank's schedulability
// changes on its own — or timing.Forever when no window is open. The event
// wheel does not fold it into its jump bound (a busy-window end is only
// actionable through a queued request, which the readiness cache already
// bounds; see Device.NextDeadline); it is a pure query for tooling and
// tests.
func (b *Bank) NextDeadline(now timing.Tick) timing.Tick {
	if b.busyUntil > now {
		return b.busyUntil
	}
	return timing.Forever
}

// AutoRefresh refreshes the next n DA rows in refresh-pointer order,
// restoring their charge. Called by the device for each REF command.
func (b *Bank) AutoRefresh(n int, now timing.Tick, busy timing.Tick) error {
	if b.open {
		return &TimingError{Cmd: "REF (bank open)", Bank: b.id, Now: now, ReadyAt: b.preReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	if r := b.readyForACT(); now < r {
		return &TimingError{Cmd: "REF", Bank: b.id, Now: now, ReadyAt: r} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	total := b.geo.DARowsPerBank()
	daPer := b.geo.DARowsPerSubarray()
	for i := 0; i < n; i++ {
		lin := b.refreshPtr % total
		b.refreshPtr = (b.refreshPtr + 1) % total
		sub, da := lin/daPer, lin%daPer
		b.RefreshRow(sub, da)
	}
	b.setBusy(now + busy)
	return nil
}

// RefreshRow fully restores one row's charge (TRR, incremental refresh, and
// auto-refresh all funnel here).
func (b *Bank) RefreshRow(sub, da int) {
	b.restore(sub, da)
	b.Stats.RefRows++
}

// restore clears a row's hammer pressure. A subarray without a tracker holds
// no pressure, so restore builds neither the subarray nor its tracker.
func (b *Bank) restore(sub, da int) {
	if sa := b.subs[sub]; sa != nil && sa.hammer != nil {
		sa.hammer.Refresh(da)
	}
}

// InternalActivate performs a device-internal ACT-PRE of a row, the
// primitive behind TRR refreshes and SHADOW's incremental refresh: the row's
// own charge is fully restored while its neighbors receive one activation's
// worth of disturbance (mitigating actions can themselves hammer).
func (b *Bank) InternalActivate(sub, da int) {
	b.recordACT(sub, da)
}

// RowCopy performs an intra-subarray row copy from srcDA to dstDA: the
// source is sensed into the row buffer (an activation, with its disturbance
// and restore), then driven into the destination row (an activation of the
// destination wordline followed by a full restore of the new data).
// Cross-subarray copies are impossible in this microarchitecture.
func (b *Bank) RowCopy(sub, srcDA, dstDA int, now timing.Tick) error {
	if b.open {
		return &TimingError{Cmd: "ROWCOPY (bank open)", Bank: b.id, Now: now, ReadyAt: b.preReadyAt}
	}
	if srcDA == dstDA {
		return fmt.Errorf("dram: bank %d row copy onto itself (sub %d, da %d)", b.id, sub, srcDA)
	}
	sa := b.Subarray(sub)
	b.recordACT(sub, srcDA)
	// The destination's activation restores it: it holds freshly driven
	// charge.
	b.recordACT(sub, dstDA)
	dst, src := sa.row(dstDA), sa.row(srcDA)
	dst.CopyFrom(&src, b.geo.RowBytes)
	sa.setRow(dstDA, dst)
	b.Stats.RowCopies++
	return nil
}

func maxTick(a, b timing.Tick) timing.Tick {
	if a > b {
		return a
	}
	return b
}

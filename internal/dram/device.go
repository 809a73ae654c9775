package dram

import (
	"fmt"

	"shadow/internal/hammer"
	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
)

// Mitigator is the in-DRAM protection hook. The device consults it to
// translate MC-visible PA rows to device rows on every ACT and hands it the
// RFM commands the MC issues. The identity mitigator (an unprotected device)
// is the zero behaviour; package shadow provides the paper's contribution
// and package mitigate the DRAM-side baselines (PARFM, Mithril).
type Mitigator interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Translate maps a PA row of a bank to the (subarray, DA row) that
	// currently holds its data.
	Translate(b *Bank, paRow int) (sub, da int)
	// OnACT observes every MC-issued activation (after translation).
	OnACT(b *Bank, paRow, sub, da int, now timing.Tick)
	// OnRFM performs the scheme's mitigating action for an RFM command on
	// bank b. The bank is precharged and will be held busy for tRFM.
	OnRFM(b *Bank, now timing.Tick)
	// NextEventAt returns the earliest future instant at which the scheme
	// could act on its own schedule rather than in response to a command
	// (timing.Forever when it has no autonomous timer). The event wheel
	// folds this into its jump bound; returning a too-early time costs an
	// extra no-op wakeup, never correctness.
	NextEventAt(now timing.Tick) timing.Tick
}

// Identity is the unprotected device's translation: PA row i lives at
// subarray i/512, row i%512, forever.
type Identity struct{}

// Name implements Mitigator.
func (Identity) Name() string { return "baseline" }

// Translate implements Mitigator.
func (Identity) Translate(b *Bank, paRow int) (int, int) {
	return b.geo.SubarrayOf(paRow)
}

// OnACT implements Mitigator.
func (Identity) OnACT(*Bank, int, int, int, timing.Tick) {}

// OnRFM implements Mitigator.
func (Identity) OnRFM(*Bank, timing.Tick) {}

// NextEventAt implements Mitigator: an unprotected device has no timers.
func (Identity) NextEventAt(timing.Tick) timing.Tick { return timing.Forever }

// FlipRecord is a bit flip observed anywhere in the device.
type FlipRecord struct {
	Bank, Sub, DA int
	Flip          hammer.Flip
}

// Device models one DRAM rank.
type Device struct {
	geo   Geometry
	p     *timing.Params
	banks []*Bank
	mit   Mitigator

	refRowsPerREF int
	flips         []FlipRecord

	// shadowscope instrumentation. cmdAt is the time of the command being
	// executed, recorded so the flip sink (which has no time parameter) can
	// timestamp flip events.
	probe     *obs.Probe
	flipCount *obs.Counter
	cmdAt     timing.Tick

	// shadowtap span tracker (nil-inert): the device opens pre-attributed
	// busy windows when REF/RFM commands start their busy time, so the
	// controller can blame ACT waits on the right cause. rfmCause is what the
	// mitigator claims for the RFM windows it fills.
	spans    *span.Tracker
	rfmCause span.Cause

	// busyNotify, when set, observes every device-side bank busy window
	// (REF/RFM) as it opens. The memory controller registers it to
	// keep its per-bank readiness cache tight: nothing can issue on the
	// bank before the window closes.
	busyNotify func(bank int, until timing.Tick)

	// Stats aggregated over banks plus rank-level commands.
	Refs int64
}

// Config bundles device construction parameters.
type Config struct {
	Geometry Geometry
	Params   *timing.Params
	Hammer   hammer.Config
	// Mitigator defaults to Identity when nil.
	Mitigator Mitigator
	// Probe, when set, records bit-flip events and a flip-rate series.
	Probe *obs.Probe
	// Spans, when set, attaches shadowtap busy-window attribution for
	// REF/RFM commands.
	Spans *span.Tracker
}

// NewDevice builds a rank.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Hammer.HCnt <= 0 || cfg.Hammer.BlastRadius <= 0 {
		return nil, fmt.Errorf("dram: invalid hammer config %+v", cfg.Hammer)
	}
	mit := cfg.Mitigator
	if mit == nil {
		mit = Identity{}
	}
	d := &Device{
		geo:   cfg.Geometry,
		p:     cfg.Params,
		banks: make([]*Bank, cfg.Geometry.Banks),
		mit:   mit,
		probe: cfg.Probe,
		spans: cfg.Spans,
	}
	d.flipCount = cfg.Probe.Counter("dram/flips_total")
	d.rfmCause = span.CauseRFM
	if a, ok := mit.(span.Attributor); ok {
		d.rfmCause = a.RFMBlame()
	}
	// Auto-refresh must cover every DA row once per tREFW: rows per REF =
	// ceil(rows / (REFW/REFI)).
	slots := int(cfg.Params.REFW / cfg.Params.REFI)
	if slots <= 0 {
		slots = 1
	}
	d.refRowsPerREF = (cfg.Geometry.DARowsPerBank() + slots - 1) / slots
	for i := range d.banks {
		b := newBank(i, cfg.Geometry, cfg.Params, cfg.Hammer)
		b.flipSink = func(bankID, sub, da int, f hammer.Flip) {
			d.flips = append(d.flips, FlipRecord{Bank: bankID, Sub: sub, DA: da, Flip: f})
			if d.probe != nil {
				d.probe.Emit(obs.Event{
					At: d.cmdAt, Kind: obs.KindFlip,
					Bank: bankID, Row: da, Aux: int64(sub),
				})
				d.flipCount.Inc()
			}
		}
		d.banks[i] = b
	}
	return d, nil
}

// MustNewDevice is NewDevice that panics on configuration errors, for tests
// and examples with known-good configs.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(fmt.Sprintf("dram: invalid device config: %v", err))
	}
	return d
}

// SetBusyNotifier registers fn to observe every bank busy window the device
// opens (REF, RFM), with the tick at which the window ends. One
// observer; nil detaches.
func (d *Device) SetBusyNotifier(fn func(bank int, until timing.Tick)) {
	d.busyNotify = fn
}

// Geometry returns the rank geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Params returns the timing parameters.
func (d *Device) Params() *timing.Params { return d.p }

// Mitigator returns the installed protection scheme.
func (d *Device) Mitigator() Mitigator { return d.mit }

// Bank returns bank i.
func (d *Device) Bank(i int) *Bank { return d.banks[i] }

// Banks returns the number of banks.
func (d *Device) Banks() int { return len(d.banks) }

// NextDeadline returns the earliest future device-side deadline: the
// installed mitigator's next autonomous timer, timing.Forever when it has
// none. Per-bank busy windows (Bank.NextDeadline) are deliberately NOT
// folded in: a bank finishing its REF/RFM is only actionable if a request
// waits on it, and that request's bank already has a (sound, lower-bound)
// key in the controller's readiness cache — adding the busy horizon here
// would wake the wheel at every staggered per-bank refresh completion and
// cost an O(banks) scan per quiescent bound. The event wheel folds this
// into its jump bound; it is a pure query.
func (d *Device) NextDeadline(now timing.Tick) timing.Tick {
	return d.mit.NextEventAt(now)
}

// RowsPerREF returns how many rows each bank refreshes per REF command.
func (d *Device) RowsPerREF() int { return d.refRowsPerREF }

// Activate opens PA row paRow of bank at time now, translating through the
// mitigator.
func (d *Device) Activate(bank, paRow int, now timing.Tick) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if paRow < 0 || paRow >= d.geo.PARowsPerBank() {
		return fmt.Errorf("dram: PA row %d out of range [0,%d)", paRow, d.geo.PARowsPerBank()) //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b := d.banks[bank]
	sub, da := d.mit.Translate(b, paRow)
	d.cmdAt = now
	if err := b.Activate(sub, da, now); err != nil {
		return err
	}
	d.mit.OnACT(b, paRow, sub, da, now)
	return nil
}

// Read performs a column read on bank's open row.
func (d *Device) Read(bank int, now timing.Tick) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	return d.banks[bank].Read(now)
}

// Write performs a column write on bank's open row.
func (d *Device) Write(bank int, now timing.Tick) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	return d.banks[bank].Write(now)
}

// Precharge closes bank's open row.
func (d *Device) Precharge(bank int, now timing.Tick) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	return d.banks[bank].Precharge(now)
}

// Refresh executes an all-bank auto-refresh (REF): every bank refreshes its
// next RowsPerREF rows and the rank is busy for tRFC. All banks must be
// precharged.
func (d *Device) Refresh(now timing.Tick) error {
	for _, b := range d.banks {
		if b.open {
			return &TimingError{Cmd: "REF (bank open)", Bank: b.id, Now: now, ReadyAt: b.preReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
		}
	}
	for _, b := range d.banks {
		if err := b.AutoRefresh(d.refRowsPerREF, now, d.p.RFC); err != nil {
			return err
		}
		if d.busyNotify != nil {
			d.busyNotify(b.id, now+d.p.RFC) //shadowvet:ignore allocflow -- wired to the controller's readiness-cache lift, a plain array write on the memctrl.Controller.Step command path
		}
	}
	d.Refs++
	d.spans.NoteAllBusy(now, now+d.p.RFC, span.CauseRefresh)
	return nil
}

// RFM executes a per-bank refresh-management command: the bank is busy for
// tRFM while the mitigator performs its action (SHADOW: row-shuffle +
// incremental refresh; PARFM/Mithril: TRR). The bank's RAA counter is
// decremented by RAAIMT per JEDEC.
func (d *Device) RFM(bank int, now timing.Tick) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	b := d.banks[bank]
	if b.open {
		return &TimingError{Cmd: "RFM (bank open)", Bank: b.id, Now: now, ReadyAt: b.preReadyAt} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	if r := b.readyForACT(); now < r {
		return &TimingError{Cmd: "RFM", Bank: b.id, Now: now, ReadyAt: r} //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b.Stats.RFMs++
	b.RAA -= d.p.RAAIMT
	if b.RAA < 0 {
		b.RAA = 0
	}
	d.cmdAt = now
	d.mit.OnRFM(b, now)
	b.setBusy(now + d.p.RFM)
	if d.busyNotify != nil {
		d.busyNotify(bank, now+d.p.RFM) //shadowvet:ignore allocflow -- wired to the controller's readiness-cache lift, a plain array write on the memctrl.Controller.Step command path
	}
	d.spans.NoteBusy(bank, now, now+d.p.RFM, d.rfmCause)
	return nil
}

// SwapRows exchanges the contents of two PA rows of a bank — the data
// movement behind an RRS row swap, performed by the MC with reads and writes
// over the channel. Both rows end fully restored. The caller accounts for
// the channel-blocking time.
func (d *Device) SwapRows(bank, paA, paB int) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if paA == paB {
		return fmt.Errorf("dram: swap of row %d with itself", paA) //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	b := d.banks[bank]
	subA, daA := d.mit.Translate(b, paA)
	subB, daB := d.mit.Translate(b, paB)
	ra, rb := b.Subarray(subA).Row(daA), b.Subarray(subB).Row(daB)
	var tmp Row
	tmp.CopyFrom(ra, d.geo.RowBytes)
	ra.CopyFrom(rb, d.geo.RowBytes)
	rb.CopyFrom(&tmp, d.geo.RowBytes)
	b.Subarray(subA).Hammer().Refresh(daA)
	b.Subarray(subB).Hammer().Refresh(daB)
	return nil
}

// Flips returns every bit flip the device has suffered.
func (d *Device) Flips() []FlipRecord { return d.flips }

// FlipCount returns the total number of bit flips.
func (d *Device) FlipCount() int { return len(d.flips) }

// InspectPA returns the current payload of a PA row (debug/verification
// path; no timing effects).
func (d *Device) InspectPA(bank, paRow int) []byte {
	b := d.banks[bank]
	sub, da := d.mit.Translate(b, paRow)
	return b.Subarray(sub).Row(da).Bytes(d.geo.RowBytes)
}

// ScrubReport summarizes a device-wide integrity scrub.
type ScrubReport struct {
	RowsChecked   int
	CorruptedRows int
	CorruptedBits int
	// PerBank counts corrupted rows by bank.
	PerBank map[int]int
}

// Scrub verifies every PA row of every bank against its power-on pattern —
// the ECC-scrubber's view of the device after an attack. Rows written by the
// workload would legitimately differ; the simulator's traffic never writes
// new values (writes re-commit the stored pattern), so any mismatch is Row
// Hammer corruption.
func (d *Device) Scrub() ScrubReport {
	rep := ScrubReport{PerBank: make(map[int]int)}
	for bank := range d.banks {
		for pa := 0; pa < d.geo.PARowsPerBank(); pa++ {
			rep.RowsChecked++
			if bits := d.CorruptedBitsPA(bank, pa); bits > 0 {
				rep.CorruptedRows++
				rep.CorruptedBits += bits
				rep.PerBank[bank]++
			}
		}
	}
	return rep
}

// CorruptedBitsPA counts bit errors in a PA row relative to its power-on
// pattern. A subarray whose row table is unbuilt still holds every row's
// power-on seed, so its rows are checked without building the table.
func (d *Device) CorruptedBitsPA(bank, paRow int) int {
	b := d.banks[bank]
	sub, da := d.mit.Translate(b, paRow)
	want := b.InitialSeed(paRow)
	sa := b.subs[sub]
	if sa == nil || sa.rows == nil {
		held := Row{seed: rowSeed(b.id, sub, da)}
		return held.CorruptedBits(want, d.geo.RowBytes)
	}
	return sa.Row(da).CorruptedBits(want, d.geo.RowBytes)
}

// RestartStats zeroes every bank's Stats and the flip counter, so that from
// now on they count a new measurement window: sim.Run calls it at the end of
// a warm-up. Flips and FlipCount keep every flip of the run.
func (d *Device) RestartStats() {
	for _, b := range d.banks {
		b.Stats = BankStats{}
	}
	d.flipCount.Reset()
}

// TotalStats sums the per-bank statistics.
func (d *Device) TotalStats() BankStats {
	var t BankStats
	for _, b := range d.banks {
		t.Acts += b.Stats.Acts
		t.Reads += b.Stats.Reads
		t.Writes += b.Stats.Writes
		t.Pres += b.Stats.Pres
		t.RefRows += b.Stats.RefRows
		t.RFMs += b.Stats.RFMs
		t.RowCopies += b.Stats.RowCopies
		t.Flips += b.Stats.Flips
	}
	return t
}

func (d *Device) checkBank(bank int) error {
	if bank < 0 || bank >= len(d.banks) {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks)) //shadowvet:ignore allocflow -- error path for protocol violations; the controller panics on any device error, so it never runs on a green run
	}
	return nil
}

package dram

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"shadow/internal/hammer"
	"shadow/internal/timing"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(Config{
		Geometry: TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666).WithRAAIMT(16),
		Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryHelpers(t *testing.T) {
	g := DefaultGeometry(true)
	if g.Banks != 32 {
		t.Errorf("DDR5 banks = %d, want 32", g.Banks)
	}
	if DefaultGeometry(false).Banks != 16 {
		t.Error("DDR4 banks != 16")
	}
	if g.DARowsPerSubarray() != 513 {
		t.Errorf("DA rows per subarray = %d, want 513", g.DARowsPerSubarray())
	}
	if g.PARowsPerBank() != 128*512 {
		t.Errorf("PA rows per bank = %d", g.PARowsPerBank())
	}
	sub, idx := g.SubarrayOf(513)
	if sub != 1 || idx != 1 {
		t.Errorf("SubarrayOf(513) = (%d,%d), want (1,1)", sub, idx)
	}
	if g.PARow(sub, idx) != 513 {
		t.Error("PARow does not invert SubarrayOf")
	}
	// Paper: 0.6% DRAM capacity overhead for additional rows.
	if ov := g.CapacityOverhead(); ov < 0.003 || ov > 0.006 {
		t.Errorf("capacity overhead = %.4f, want ~0.4%%", ov)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Banks: 0, SubarraysPerBank: 1, RowsPerSubarray: 1, RowBytes: 1},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 1, RowBytes: 0},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 1, RowBytes: 1, ExtraRows: -1},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, g)
		}
	}
	if err := TestGeometry().Validate(); err != nil {
		t.Errorf("TestGeometry invalid: %v", err)
	}
}

func TestRowPatternDeterminism(t *testing.T) {
	var r Row
	r.SetSeed(42)
	b1 := append([]byte(nil), r.Bytes(64)...)
	var r2 Row
	r2.SetSeed(42)
	if !bytes.Equal(b1, r2.Bytes(64)) {
		t.Fatal("same seed produced different patterns")
	}
	if !bytes.Equal(b1, PatternBytes(42, 64)) {
		t.Fatal("PatternBytes mismatch")
	}
	var r3 Row
	r3.SetSeed(43)
	if bytes.Equal(b1, r3.Bytes(64)) {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestRowFlipAndIntegrity(t *testing.T) {
	var r Row
	r.SetSeed(7)
	if got := r.CorruptedBits(7, 64); got != 0 {
		t.Fatalf("fresh row corrupted bits = %d", got)
	}
	r.FlipBit(100, 64)
	if got := r.CorruptedBits(7, 64); got != 1 {
		t.Fatalf("after one flip corrupted bits = %d", got)
	}
	r.FlipBit(100, 64) // flip back
	if got := r.CorruptedBits(7, 64); got != 0 {
		t.Fatalf("after flip-back corrupted bits = %d", got)
	}
}

func TestRowCopyFrom(t *testing.T) {
	var src, dst Row
	src.SetSeed(1)
	dst.SetSeed(2)
	// Unmaterialized copy moves only the seed.
	dst.CopyFrom(&src, 64)
	if dst.Materialized() {
		t.Fatal("copy of unmaterialized row should stay unmaterialized")
	}
	if dst.CorruptedBits(1, 64) != 0 {
		t.Fatal("copied row does not match source pattern")
	}
	// Materialized (corrupted) copy moves the bytes.
	src.FlipBit(5, 64)
	dst.CopyFrom(&src, 64)
	if dst.CorruptedBits(1, 64) != 1 {
		t.Fatal("copy did not preserve corruption")
	}
}

func TestActivateReadPrechargeCycle(t *testing.T) {
	d := testDevice(t)
	p := d.Params()
	now := timing.Tick(0)
	if err := d.Activate(0, 5, now); err != nil {
		t.Fatal(err)
	}
	// RD before tRCD must fail.
	if err := d.Read(0, now+p.RCD-1); err == nil {
		t.Fatal("RD before tRCD accepted")
	}
	if err := d.Read(0, now+p.RCD); err != nil {
		t.Fatal(err)
	}
	// PRE before tRAS must fail.
	if err := d.Precharge(0, now+p.RAS-1); err == nil {
		t.Fatal("PRE before tRAS accepted")
	}
	if err := d.Precharge(0, now+p.RAS); err != nil {
		t.Fatal(err)
	}
	// ACT before tRP must fail.
	if err := d.Activate(0, 6, now+p.RAS+p.RP-1); err == nil {
		t.Fatal("ACT before tRP accepted")
	}
	if err := d.Activate(0, 6, now+p.RAS+p.RP); err != nil {
		t.Fatal(err)
	}
	var te *TimingError
	err := d.Read(0, now+p.RAS+p.RP)
	if !errors.As(err, &te) {
		t.Fatalf("want TimingError, got %v", err)
	}
	if !strings.Contains(te.Error(), "RD") {
		t.Errorf("error lacks command name: %v", te)
	}
}

func TestDoubleActivateRejected(t *testing.T) {
	d := testDevice(t)
	if err := d.Activate(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(1, 1, d.Params().RC); err == nil {
		t.Fatal("ACT on open bank accepted")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	d := testDevice(t)
	p := d.Params()
	if err := d.Activate(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	wrAt := p.EffectiveRCD()
	if err := d.Write(0, wrAt); err != nil {
		t.Fatal(err)
	}
	preOK := wrAt + p.WL + p.BL + p.WR
	if preOK < p.RAS {
		t.Skip("geometry makes tRAS dominate")
	}
	if err := d.Precharge(0, preOK-1); err == nil {
		t.Fatal("PRE inside write recovery accepted")
	}
	if err := d.Precharge(0, preOK); err != nil {
		t.Fatal(err)
	}
}

func TestPrechargeClosedBankIsNoop(t *testing.T) {
	d := testDevice(t)
	if err := d.Precharge(2, 0); err != nil {
		t.Fatalf("PRE on idle bank should be a no-op, got %v", err)
	}
}

func TestRefreshCoversAllRowsWithinREFW(t *testing.T) {
	d := testDevice(t)
	p := d.Params()
	slots := int(p.REFW / p.REFI)
	rows := d.Geometry().DARowsPerBank()
	if got := d.RowsPerREF() * slots; got < rows {
		t.Fatalf("auto-refresh covers %d rows per tREFW, need >= %d", got, rows)
	}
	now := timing.Tick(0)
	if err := d.Refresh(now); err != nil {
		t.Fatal(err)
	}
	if d.Refs != 1 {
		t.Fatalf("Refs = %d", d.Refs)
	}
	// Bank busy during tRFC.
	if err := d.Activate(0, 0, now+p.RFC-1); err == nil {
		t.Fatal("ACT during tRFC accepted")
	}
	if err := d.Activate(0, 0, now+p.RFC); err != nil {
		t.Fatal(err)
	}
	// REF with an open bank must fail.
	if err := d.Refresh(now + p.RFC); err == nil {
		t.Fatal("REF with open bank accepted")
	}
}

func TestAutoRefreshResetsHammerPressure(t *testing.T) {
	d, err := NewDevice(Config{
		Geometry: TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: 1000, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params()
	now := timing.Tick(0)
	// Hammer row 5 of bank 0 for a while.
	for i := 0; i < 100; i++ {
		if err := d.Activate(0, 5, now); err != nil {
			t.Fatal(err)
		}
		now += p.RAS
		if err := d.Precharge(0, now); err != nil {
			t.Fatal(err)
		}
		now += p.RP
	}
	sa := d.Bank(0).Subarray(0)
	if sa.Hammer().Pressure(4) != 100 {
		t.Fatalf("pressure = %g, want 100", sa.Hammer().Pressure(4))
	}
	// One full sweep of REF commands must reset it.
	slots := int(p.REFW/p.REFI) + 1
	for i := 0; i < slots; i++ {
		if err := d.Refresh(now); err != nil {
			t.Fatal(err)
		}
		now += p.RFC
	}
	if got := sa.Hammer().Pressure(4); got != 0 {
		t.Fatalf("pressure after full refresh sweep = %g, want 0", got)
	}
}

func TestHammerFlipCorruptsData(t *testing.T) {
	d, err := NewDevice(Config{
		Geometry: TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: 50, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params()
	now := timing.Tick(0)
	for i := 0; i < 50; i++ {
		if err := d.Activate(0, 5, now); err != nil {
			t.Fatal(err)
		}
		now += p.RAS
		if err := d.Precharge(0, now); err != nil {
			t.Fatal(err)
		}
		now += p.RP
	}
	if d.FlipCount() != 2 {
		t.Fatalf("FlipCount = %d, want 2 (both neighbors)", d.FlipCount())
	}
	if got := d.CorruptedBitsPA(0, 4); got != 1 {
		t.Errorf("PA row 4 corrupted bits = %d, want 1", got)
	}
	if got := d.CorruptedBitsPA(0, 6); got != 1 {
		t.Errorf("PA row 6 corrupted bits = %d, want 1", got)
	}
	if got := d.CorruptedBitsPA(0, 5); got != 0 {
		t.Errorf("aggressor row corrupted bits = %d, want 0", got)
	}
	for _, f := range d.Flips() {
		if f.Bank != 0 || f.Sub != 0 {
			t.Errorf("flip at bank %d sub %d, want 0/0", f.Bank, f.Sub)
		}
	}
}

func TestRowCopyMovesData(t *testing.T) {
	d := testDevice(t)
	b := d.Bank(0)
	sa := b.Subarray(2)
	want := append([]byte(nil), sa.Row(3).Bytes(d.Geometry().RowBytes)...)
	if err := b.RowCopy(2, 3, 9, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Row(9).Bytes(d.Geometry().RowBytes), want) {
		t.Fatal("row copy did not move data")
	}
	if b.Stats.RowCopies != 1 {
		t.Fatalf("RowCopies = %d", b.Stats.RowCopies)
	}
	if err := b.RowCopy(2, 4, 4, 0); err == nil {
		t.Fatal("self copy accepted")
	}
}

func TestRowCopyRequiresClosedBank(t *testing.T) {
	d := testDevice(t)
	if err := d.Activate(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Bank(0).RowCopy(0, 1, 2, d.Params().RCD); err == nil {
		t.Fatal("row copy with open bank accepted")
	}
}

func TestRFMBusyAndRAA(t *testing.T) {
	d := testDevice(t)
	p := d.Params()
	now := timing.Tick(0)
	// Run RAAIMT activations.
	for i := 0; i < p.RAAIMT; i++ {
		if err := d.Activate(3, i, now); err != nil {
			t.Fatal(err)
		}
		now += p.RAS
		if err := d.Precharge(3, now); err != nil {
			t.Fatal(err)
		}
		now += p.RP
	}
	if got := d.Bank(3).RAA; got != p.RAAIMT {
		t.Fatalf("RAA = %d, want %d", got, p.RAAIMT)
	}
	if err := d.RFM(3, now); err != nil {
		t.Fatal(err)
	}
	if got := d.Bank(3).RAA; got != 0 {
		t.Fatalf("RAA after RFM = %d, want 0", got)
	}
	// Bank busy for tRFM.
	if err := d.Activate(3, 0, now+p.RFM-1); err == nil {
		t.Fatal("ACT during tRFM accepted")
	}
	if err := d.Activate(3, 0, now+p.RFM); err != nil {
		t.Fatal(err)
	}
	if d.Bank(3).Stats.RFMs != 1 {
		t.Fatal("RFM not counted")
	}
}

func TestIdentityTranslate(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	f := func(row uint16) bool {
		pa := int(row) % g.PARowsPerBank()
		sub, da := Identity{}.Translate(d.Bank(0), pa)
		wsub, wda := g.SubarrayOf(pa)
		return sub == wsub && da == wda
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if (Identity{}).Name() != "baseline" {
		t.Error("unexpected identity name")
	}
}

func TestBadAddressesRejected(t *testing.T) {
	d := testDevice(t)
	if err := d.Activate(99, 0, 0); err == nil {
		t.Error("bad bank accepted")
	}
	if err := d.Activate(0, -1, 0); err == nil {
		t.Error("negative row accepted")
	}
	if err := d.Activate(0, d.Geometry().PARowsPerBank(), 0); err == nil {
		t.Error("row beyond PA space accepted")
	}
	if err := d.Read(-1, 0); err == nil {
		t.Error("bad bank read accepted")
	}
}

func TestSoftPPR(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	// Corrupt PA row 7's current cell, then repair it to the spare row.
	before := append([]byte(nil), d.InspectPA(0, 7)...)
	if err := d.SoftPPR(0, 7, 0, g.DARowsPerSubarray()-1); err != nil {
		t.Fatal(err)
	}
	if d.SPPRCount(0) != 1 {
		t.Fatalf("SPPRCount = %d", d.SPPRCount(0))
	}
	// Data followed the repair.
	if !bytes.Equal(d.InspectPA(0, 7), before) {
		t.Fatal("sPPR lost row contents")
	}
	// Activation goes to the spare now.
	if err := d.Activate(0, 7, 0); err != nil {
		t.Fatal(err)
	}
	_, da, ok := d.Bank(0).Open()
	if !ok || da != g.DARowsPerSubarray()-1 {
		t.Fatalf("open row = %d, want spare %d", da, g.DARowsPerSubarray()-1)
	}
	// Repairing to the same spot is rejected.
	if err := d.SoftPPR(0, 7, 0, g.DARowsPerSubarray()-1); err == nil {
		t.Fatal("duplicate sPPR accepted")
	}
}

func TestTotalStats(t *testing.T) {
	d := testDevice(t)
	p := d.Params()
	now := timing.Tick(0)
	for bank := 0; bank < 2; bank++ {
		if err := d.Activate(bank, 0, now); err != nil {
			t.Fatal(err)
		}
		if err := d.Read(bank, now+p.EffectiveRCD()); err != nil {
			t.Fatal(err)
		}
		if err := d.Precharge(bank, now+p.RAS); err != nil {
			t.Fatal(err)
		}
	}
	s := d.TotalStats()
	if s.Acts != 2 || s.Reads != 2 || s.Pres != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNewDeviceValidation(t *testing.T) {
	_, err := NewDevice(Config{Geometry: Geometry{}, Params: timing.NewParams(timing.DDR4_2666), Hammer: hammer.DefaultConfig()})
	if err == nil {
		t.Error("bad geometry accepted")
	}
	_, err = NewDevice(Config{Geometry: TestGeometry(), Params: timing.NewParams(timing.DDR4_2666), Hammer: hammer.Config{}})
	if err == nil {
		t.Error("bad hammer config accepted")
	}
}

func TestSoftPPRRejectsActiveRemapper(t *testing.T) {
	// A non-identity mitigator (anything that remaps) must reject sPPR.
	d, err := NewDevice(Config{
		Geometry:  TestGeometry(),
		Params:    timing.NewParams(timing.DDR4_2666),
		Hammer:    hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
		Mitigator: fakeRemapper{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SoftPPR(0, 1, 0, 5); err == nil {
		t.Fatal("sPPR accepted with a dynamic remapper installed")
	}
}

// fakeRemapper is a trivial non-identity mitigator for the sPPR guard test.
type fakeRemapper struct{ Identity }

func (fakeRemapper) Name() string { return "fake-remapper" }

func TestScrubFindsFlips(t *testing.T) {
	d, err := NewDevice(Config{
		Geometry: TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: 40, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := d.Scrub(); rep.CorruptedRows != 0 || rep.RowsChecked == 0 {
		t.Fatalf("fresh device scrub = %+v", rep)
	}
	p := d.Params()
	now := timing.Tick(0)
	for i := 0; i < 40; i++ {
		if err := d.Activate(1, 5, now); err != nil {
			t.Fatal(err)
		}
		now += p.RAS
		if err := d.Precharge(1, now); err != nil {
			t.Fatal(err)
		}
		now += p.RP
	}
	rep := d.Scrub()
	if rep.CorruptedRows != 2 || rep.CorruptedBits != 2 {
		t.Fatalf("scrub = %+v, want 2 rows / 2 bits", rep)
	}
	if rep.PerBank[1] != 2 || rep.PerBank[0] != 0 {
		t.Fatalf("per-bank = %v", rep.PerBank)
	}
}

func TestBankAccessors(t *testing.T) {
	d := testDevice(t)
	b := d.Bank(2)
	if b.ID() != 2 {
		t.Fatalf("ID = %d", b.ID())
	}
	if b.Params() != d.Params() {
		t.Fatal("Params mismatch")
	}
	if b.Geometry() != d.Geometry() {
		t.Fatal("Geometry mismatch")
	}
	if d.Banks() != d.Geometry().Banks {
		t.Fatalf("Banks = %d", d.Banks())
	}
	if d.Mitigator().Name() != "baseline" {
		t.Fatalf("Mitigator = %q", d.Mitigator().Name())
	}
	// Remap row accessible and distinct from ordinary rows.
	sa := b.Subarray(0)
	if sa.RemapRow() == sa.Row(0) {
		t.Fatal("remap row aliases an ordinary row")
	}
}

func TestNextReadyTimes(t *testing.T) {
	d := testDevice(t)
	p := d.Params()
	b := d.Bank(0)
	// Closed bank: ACT ready now, RD/PRE never.
	if b.NextACTReady() != 0 {
		t.Fatalf("NextACTReady = %v", b.NextACTReady())
	}
	if b.NextRDReady() != timing.Forever || b.NextPREReady() != timing.Forever {
		t.Fatal("closed bank should never be RD/PRE ready")
	}
	if err := d.Activate(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if b.NextACTReady() != timing.Forever {
		t.Fatal("open bank should never be ACT ready")
	}
	if b.NextRDReady() != p.EffectiveRCD() {
		t.Fatalf("NextRDReady = %v, want tRCD %v", b.NextRDReady(), p.EffectiveRCD())
	}
	if b.NextPREReady() != p.RAS {
		t.Fatalf("NextPREReady = %v, want tRAS %v", b.NextPREReady(), p.RAS)
	}
	if b.BusyUntil() != 0 {
		t.Fatalf("BusyUntil = %v", b.BusyUntil())
	}
}

func TestInternalActivateDisturbsAndRestores(t *testing.T) {
	d, err := NewDevice(Config{
		Geometry: TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: 1000, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := d.Bank(0)
	sa := b.Subarray(0)
	// Build pressure on row 5 via its neighbor.
	for i := 0; i < 10; i++ {
		sa.Hammer().Activate(6)
	}
	if sa.Hammer().Pressure(5) != 10 {
		t.Fatal("setup failed")
	}
	b.InternalActivate(0, 5)
	if sa.Hammer().Pressure(5) != 0 {
		t.Fatal("internal activate did not restore the row")
	}
	if sa.Hammer().Pressure(4) != 1 {
		t.Fatalf("neighbor pressure = %g, want 1 (internal ACT disturbs)", sa.Hammer().Pressure(4))
	}
}

func TestMustNewDevice(t *testing.T) {
	d := MustNewDevice(Config{
		Geometry: TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.DefaultConfig(),
	})
	if d == nil {
		t.Fatal("nil device")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewDevice with bad config did not panic")
		}
	}()
	MustNewDevice(Config{})
}

func TestSwapRowsDevice(t *testing.T) {
	d := testDevice(t)
	a := append([]byte(nil), d.InspectPA(0, 3)...)
	bb := append([]byte(nil), d.InspectPA(0, 9)...)
	if err := d.SwapRows(0, 3, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.InspectPA(0, 3), bb) || !bytes.Equal(d.InspectPA(0, 9), a) {
		t.Fatal("swap did not exchange contents")
	}
	if err := d.SwapRows(0, 3, 3); err == nil {
		t.Fatal("self swap accepted")
	}
	if err := d.SwapRows(99, 0, 1); err == nil {
		t.Fatal("bad bank accepted")
	}
}

func TestRowSeedAccessor(t *testing.T) {
	var r Row
	r.SetSeed(77)
	if r.Seed() != 77 {
		t.Fatalf("Seed = %d", r.Seed())
	}
	// Unmaterialized rows with different seeds compare by pattern.
	var q Row
	q.SetSeed(78)
	if q.CorruptedBits(77, 32) == 0 {
		t.Fatal("different seeds should differ")
	}
	var same Row
	same.SetSeed(77)
	if same.CorruptedBits(77, 32) != 0 {
		t.Fatal("same seed should match without materializing")
	}
}

// builtRowTables lists the subarrays, as {bank, sub}, whose row table has
// been built.
func builtRowTables(d *Device) [][2]int {
	var out [][2]int
	for _, b := range d.banks {
		for s, sa := range b.subs {
			if sa != nil && sa.rows != nil {
				out = append(out, [2]int{b.id, s})
			}
		}
	}
	return out
}

// TestRowTableBuiltOnFirstUse: ACTs and refreshes touch only the hammer
// trackers, so a run with no copy, swap, repair or flip builds no row
// table, even though a refresh sweep creates every subarray. A built table
// holds every row's power-on seed, and each operation that writes row data
// builds exactly the tables it touches. An integrity check reads an
// unbuilt table's seeds without building it, and still finds a flip.
func TestRowTableBuiltOnFirstUse(t *testing.T) {
	d := testDevice(t)
	g, p := d.Geometry(), d.Params()
	now := timing.Tick(0)
	for bank := 0; bank < g.Banks; bank++ {
		for pa := 0; pa < g.PARowsPerBank(); pa += 7 {
			if err := d.Activate(bank, pa, now); err != nil {
				t.Fatal(err)
			}
			now += p.RAS
			if err := d.Precharge(bank, now); err != nil {
				t.Fatal(err)
			}
			now += p.RP
		}
	}
	for i := 0; i <= int(p.REFW/p.REFI); i++ {
		if err := d.Refresh(now); err != nil {
			t.Fatal(err)
		}
		now += p.RFC
	}
	for _, b := range d.banks {
		for s, sa := range b.subs {
			if sa == nil {
				t.Fatalf("bank %d subarray %d not created by a refresh sweep", b.id, s)
			}
		}
	}
	if d.FlipCount() != 0 {
		t.Fatalf("%d flips", d.FlipCount())
	}
	if built := builtRowTables(d); len(built) != 0 {
		t.Fatalf("ACTs and refreshes built row tables %v", built)
	}
	if rep := d.Scrub(); rep.CorruptedBits != 0 || rep.RowsChecked != g.Banks*g.PARowsPerBank() {
		t.Fatalf("scrub of an untouched device: %d corrupted bits over %d rows, want 0 over %d",
			rep.CorruptedBits, rep.RowsChecked, g.Banks*g.PARowsPerBank())
	}
	if built := builtRowTables(d); len(built) != 0 {
		t.Fatalf("a scrub of an untouched device built row tables %v", built)
	}

	// A built table starts at every row's power-on seed, spare rows included.
	sa := d.Bank(1).Subarray(2)
	sa.Row(0)
	for i := 0; i < g.DARowsPerSubarray(); i++ {
		r := sa.Row(i)
		want := rowSeed(1, 2, i)
		if i < g.RowsPerSubarray && want != d.Bank(1).InitialSeed(g.PARow(2, i)) {
			t.Fatalf("row %d: rowSeed %x, InitialSeed %x", i, want, d.Bank(1).InitialSeed(g.PARow(2, i)))
		}
		if r.Seed() != want || r.Materialized() {
			t.Fatalf("row %d: seed %x materialized %v, want %x unmaterialized", i, r.Seed(), r.Materialized(), want)
		}
	}
	if built := builtRowTables(d); len(built) != 1 || built[0] != [2]int{1, 2} {
		t.Fatalf("Row built tables %v, want [[1 2]]", built)
	}

	// An integrity check reads built and unbuilt tables alike and builds
	// none.
	for bank := 0; bank < g.Banks; bank++ {
		for pa := 0; pa < g.PARowsPerBank(); pa++ {
			if bits := d.CorruptedBitsPA(bank, pa); bits != 0 {
				t.Fatalf("untouched PA row %d/%d: %d corrupted bits", bank, pa, bits)
			}
		}
	}
	if built := builtRowTables(d); len(built) != 1 {
		t.Fatalf("a full scrub built tables: %v, want [[1 2]]", built)
	}

	// A flip builds its table, and a scrub still finds it: a hammered row
	// at H_cnt flips one bit in each neighbor.
	d, err := NewDevice(Config{
		Geometry: g,
		Params:   p,
		Hammer:   hammer.Config{HCnt: 50, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d.Bank(1).InternalActivate(3, 5)
	}
	if d.FlipCount() != 2 {
		t.Fatalf("%d flips, want 2", d.FlipCount())
	}
	rep := d.Scrub()
	if rep.CorruptedRows != 2 || rep.CorruptedBits != 2 || rep.PerBank[1] != 2 {
		t.Fatalf("scrub after a flip: %+v, want 2 rows and 2 bits in bank 1", rep)
	}
	if built := builtRowTables(d); len(built) != 1 || built[0] != [2]int{1, 3} {
		t.Fatalf("flip and scrub built %v, want [[1 3]]", built)
	}
}

// TestRowDataOpsBuildOnlyTheirTables: a row copy, a swap, an sPPR and a
// flip each build only the tables of the rows they touch, and move or
// corrupt data as they did when every table was built up front.
func TestRowDataOpsBuildOnlyTheirTables(t *testing.T) {
	g := TestGeometry()
	rb := g.RowBytes

	d := testDevice(t)
	b := d.Bank(0)
	if err := b.RowCopy(2, 3, 9, 0); err != nil {
		t.Fatal(err)
	}
	if built := builtRowTables(d); len(built) != 1 || built[0] != [2]int{0, 2} {
		t.Fatalf("RowCopy built %v, want [[0 2]]", built)
	}
	if got, want := b.Subarray(2).Row(9).Seed(), b.InitialSeed(g.PARow(2, 3)); got != want {
		t.Fatalf("copied row seed %x, want %x", got, want)
	}

	d = testDevice(t)
	paA, paB := g.PARow(1, 3), g.PARow(3, 5)
	a, bb := PatternBytes(d.Bank(2).InitialSeed(paA), rb), PatternBytes(d.Bank(2).InitialSeed(paB), rb)
	if err := d.SwapRows(2, paA, paB); err != nil {
		t.Fatal(err)
	}
	if built := builtRowTables(d); len(built) != 2 || built[0] != [2]int{2, 1} || built[1] != [2]int{2, 3} {
		t.Fatalf("SwapRows built %v, want [[2 1] [2 3]]", built)
	}
	if !bytes.Equal(d.InspectPA(2, paA), bb) || !bytes.Equal(d.InspectPA(2, paB), a) {
		t.Fatal("swap did not exchange contents")
	}

	d = testDevice(t)
	if err := d.SoftPPR(3, 7, 1, g.DARowsPerSubarray()-1); err != nil {
		t.Fatal(err)
	}
	if built := builtRowTables(d); len(built) != 2 || built[0] != [2]int{3, 0} || built[1] != [2]int{3, 1} {
		t.Fatalf("SoftPPR built %v, want [[3 0] [3 1]]", built)
	}
	if d.CorruptedBitsPA(3, 7) != 0 {
		t.Fatal("repaired row lost its data")
	}

	d, err := NewDevice(Config{
		Geometry: g,
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: 50, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b = d.Bank(1)
	for i := 0; i < 49; i++ {
		b.InternalActivate(3, 5)
	}
	if built := builtRowTables(d); len(built) != 0 {
		t.Fatalf("ACTs below H_cnt built %v", built)
	}
	b.InternalActivate(3, 5)
	if built := builtRowTables(d); len(built) != 1 || built[0] != [2]int{1, 3} {
		t.Fatalf("flips built %v, want [[1 3]]", built)
	}
	if d.FlipCount() != 2 || d.CorruptedBitsPA(1, g.PARow(3, 4)) != 1 || d.CorruptedBitsPA(1, g.PARow(3, 6)) != 1 {
		t.Fatalf("flips %d; corrupted bits %d/%d, want 2; 1/1",
			d.FlipCount(), d.CorruptedBitsPA(1, g.PARow(3, 4)), d.CorruptedBitsPA(1, g.PARow(3, 6)))
	}
}

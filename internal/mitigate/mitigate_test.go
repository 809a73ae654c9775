package mitigate

import (
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/timing"
)

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker(2)
	tr.Observe(1)
	tr.Observe(1)
	tr.Observe(2)
	if tr.Count(1) != 2 || tr.Count(2) != 1 {
		t.Fatalf("counts = %d/%d", tr.Count(1), tr.Count(2))
	}
	row, c, ok := tr.Top()
	if !ok || row != 1 || c != 2 {
		t.Fatalf("Top = (%d,%d,%v)", row, c, ok)
	}
	// Space-Saving eviction: new element takes min+1.
	tr.Observe(3)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.Count(3) != 2 { // evicted row 2 with count 1
		t.Fatalf("Count(3) = %d, want 2", tr.Count(3))
	}
	if tr.Count(2) != 0 {
		t.Fatal("row 2 not evicted")
	}
}

// TestTrackerGuarantee: any row activated more than total/capacity times is
// guaranteed present — the Misra-Gries property Mithril's protection relies
// on.
func TestTrackerGuarantee(t *testing.T) {
	const capacity, rounds = 8, 1000
	tr := NewTracker(capacity)
	// Heavy hitter: every other observation; noise: fresh rows.
	for i := 0; i < rounds; i++ {
		tr.Observe(42)
		tr.Observe(1000 + i)
	}
	if tr.Count(42) == 0 {
		t.Fatal("heavy hitter lost from tracker")
	}
	row, _, _ := tr.Top()
	if row != 42 {
		t.Fatalf("Top = %d, want 42", row)
	}
}

func TestTrackerMitigatedDemotes(t *testing.T) {
	tr := NewTracker(4)
	for i := 0; i < 10; i++ {
		tr.Observe(7)
	}
	tr.Observe(8)
	tr.Mitigated(7)
	if tr.Count(7) != tr.Count(8) {
		t.Fatalf("mitigated row count %d, want table min %d", tr.Count(7), tr.Count(8))
	}
	tr.Mitigated(999) // absent row: no-op
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func newDevice(t *testing.T, mit dram.Mitigator, hcnt int) *dram.Device {
	t.Helper()
	d, err := dram.NewDevice(dram.Config{
		Geometry:  dram.TestGeometry(),
		Params:    timing.NewParams(timing.DDR4_2666).WithRAAIMT(8),
		Hammer:    hammer.Config{HCnt: hcnt, BlastRadius: 3},
		Mitigator: mit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// drive runs n ACT-PRE cycles on pa, issuing RFM at RAAIMT like the MC.
func drive(t *testing.T, d *dram.Device, bank, pa, n int) {
	t.Helper()
	p := d.Params()
	now := timing.Tick(0)
	for i := 0; i < n; i++ {
		if err := d.Activate(bank, pa, now); err != nil {
			t.Fatal(err)
		}
		now += p.RAS
		if err := d.Precharge(bank, now); err != nil {
			t.Fatal(err)
		}
		now += p.RP
		if d.Bank(bank).RAA >= p.RAAIMT {
			if err := d.RFM(bank, now); err != nil {
				t.Fatal(err)
			}
			now += p.RFM
		}
	}
}

func TestPARFMDefendsSingleRow(t *testing.T) {
	const hcnt = 128
	m := NewPARFM(3, 1)
	d := newDevice(t, m, hcnt)
	drive(t, d, 0, 16, 8*hcnt)
	// Single-aggressor attack against PARFM with RAAIMT 8: the sampled row
	// is always the aggressor, so victims are refreshed every 8 ACTs and
	// never accumulate 128.
	if d.FlipCount() != 0 {
		t.Fatalf("PARFM flipped %d bits under single-row attack", d.FlipCount())
	}
	if m.TRRs == 0 {
		t.Fatal("no TRRs issued")
	}
}

func TestMithrilDefendsSingleRow(t *testing.T) {
	const hcnt = 128
	m := NewMithril(16, 3)
	d := newDevice(t, m, hcnt)
	drive(t, d, 0, 16, 8*hcnt)
	if d.FlipCount() != 0 {
		t.Fatalf("Mithril flipped %d bits", d.FlipCount())
	}
	if m.TRRs == 0 {
		t.Fatal("no TRRs issued")
	}
	if m.Name() != "mithril-16" {
		t.Fatalf("name = %q", m.Name())
	}
	if m.TableBytesPerBank() != 80 {
		t.Fatalf("table bytes = %d", m.TableBytesPerBank())
	}
}

func TestBaselineFlipsWhereMitigationsDefend(t *testing.T) {
	const hcnt = 128
	d := newDevice(t, dram.Identity{}, hcnt)
	drive(t, d, 0, 16, 8*hcnt) // RFMs still consume time but do nothing
	if d.FlipCount() == 0 {
		t.Fatal("unprotected device survived the attack the baselines defend")
	}
}

func TestTRRVictimCoverage(t *testing.T) {
	m := NewPARFM(2, 1)
	d := newDevice(t, m, 1<<20)
	b := d.Bank(0)
	// Hammer PA row 16 (sub 0 in TestGeometry has 32 rows; 16 is interior).
	drive(t, d, 0, 16, 8)
	sa := b.Subarray(0)
	// After the RFM, victims 14,15,17,18 were refreshed (pressure 0 except
	// disturbance from the TRR activations themselves, < 3).
	for _, v := range []int{15, 17} {
		if p := sa.Hammer().Pressure(v); p > 3 {
			t.Errorf("victim %d pressure %g after TRR", v, p)
		}
	}
}

func TestDualCBFEstimateNeverUnderestimates(t *testing.T) {
	cbf := NewDualCBF(256, 4, 99)
	for i := 0; i < 100; i++ {
		cbf.Insert(7)
	}
	if got := cbf.Estimate(7); got < 100 {
		t.Fatalf("estimate %d below true count 100", got)
	}
	if cbf.Estimate(12345) > 0 {
		t.Log("collision for absent key (allowed, bloom filters overestimate)")
	}
}

func TestDualCBFRotateBoundsHistory(t *testing.T) {
	cbf := NewDualCBF(256, 4, 1)
	for i := 0; i < 50; i++ {
		cbf.Insert(7)
	}
	cbf.Rotate() // elder (with 50) clears; younger (with 50) becomes elder
	if got := cbf.Estimate(7); got != 50 {
		t.Fatalf("estimate after one rotate = %d, want 50", got)
	}
	cbf.Rotate()
	if got := cbf.Estimate(7); got != 0 {
		t.Fatalf("estimate after two rotates = %d, want 0", got)
	}
	if cbf.Epoch() != 2 {
		t.Fatalf("Epoch = %d", cbf.Epoch())
	}
}

func TestBlockHammerThrottlesHotRow(t *testing.T) {
	cfg := BlockHammerConfig{
		Hammer: hammer.Config{HCnt: 1024, BlastRadius: 1},
		REFW:   32 * timing.Millisecond,
		Seed:   3,
	}
	bh := NewBlockHammer(cfg)
	now := timing.Tick(0)
	rc := timing.NS(45)
	delayed := false
	for i := 0; i < 1000; i++ {
		at := bh.ACTAllowedAt(0, 5, now)
		if at > now {
			delayed = true
			now = at
		}
		bh.OnACT(0, 5, now)
		now += rc
	}
	if !delayed {
		t.Fatal("hot row never throttled")
	}
	if bh.Blacklisted == 0 {
		t.Fatal("row never blacklisted")
	}
	// The throttle must keep the row below the effective H_cnt per window:
	// time for 1000 ACTs must now far exceed the unthrottled 45us.
	if now < 10*timing.Microsecond {
		t.Fatalf("1000 throttled ACTs took only %v", now)
	}
}

func TestBlockHammerLeavesColdRowsAlone(t *testing.T) {
	cfg := BlockHammerConfig{
		Hammer: hammer.Config{HCnt: 4096, BlastRadius: 1},
		REFW:   32 * timing.Millisecond,
	}
	bh := NewBlockHammer(cfg)
	now := timing.Tick(0)
	for i := 0; i < 2000; i++ {
		row := i % 500 // spread across many rows
		if at := bh.ACTAllowedAt(1, row, now); at != now {
			t.Fatalf("cold row %d delayed at iteration %d", row, i)
		}
		bh.OnACT(1, row, now)
		now += timing.NS(45)
	}
}

func TestBlockHammerEpochResetsBlacklist(t *testing.T) {
	cfg := BlockHammerConfig{
		Hammer: hammer.Config{HCnt: 256, BlastRadius: 1},
		REFW:   1 * timing.Millisecond,
	}
	bh := NewBlockHammer(cfg)
	now := timing.Tick(0)
	for i := 0; i < 200; i++ {
		bh.OnACT(0, 9, now)
		now += timing.NS(50)
	}
	if bh.ACTAllowedAt(0, 9, now) == now {
		t.Fatal("row should be throttled before epoch end")
	}
	// Jump two epochs: both filters rotate out, row is clean again.
	now += 2 * cfg.REFW
	if at := bh.ACTAllowedAt(0, 9, now); at != now {
		t.Fatalf("row still throttled after full window: %v > %v", at, now)
	}
}

func TestRRSSwapTriggersAndIndirection(t *testing.T) {
	cfg := RRSConfig{
		SwapThreshold: 16,
		RowsPerBank:   128,
		SwapLatency:   4 * timing.Microsecond,
		REFW:          32 * timing.Millisecond,
		Seed:          5,
	}
	r := NewRRS(cfg)
	now := timing.Tick(0)
	var req *SwapRequest
	n := 0
	for req == nil {
		n++
		if n > 17 {
			t.Fatal("no swap after threshold+1 ACTs")
		}
		req = r.OnACT(2, 40, now)
		now += timing.NS(50)
	}
	if n != 16 {
		t.Fatalf("swap after %d ACTs, want 16", n)
	}
	if req.Bank != 2 || req.RowA != 40 || req.BlockFor != cfg.SwapLatency {
		t.Fatalf("bad request %+v", req)
	}
	if req.RowB == 40 {
		t.Fatal("swapped with itself")
	}
	// Indirection: logical 40 now lives at RowB and vice versa.
	if got := r.TranslateRow(2, 40); got != req.RowB {
		t.Fatalf("TranslateRow(40) = %d, want %d", got, req.RowB)
	}
	if got := r.TranslateRow(2, req.RowB); got != 40 {
		t.Fatalf("TranslateRow(%d) = %d, want 40", req.RowB, got)
	}
	if r.Swaps != 1 {
		t.Fatalf("Swaps = %d", r.Swaps)
	}
}

// TestRRSRepeatedSwapsStayConsistent: after many swaps the indirection table
// must remain an involution-free permutation (every logical row resolves to
// exactly one physical row).
func TestRRSRepeatedSwapsStayConsistent(t *testing.T) {
	cfg := RRSConfig{SwapThreshold: 4, RowsPerBank: 64, REFW: 32 * timing.Millisecond, Seed: 11}
	r := NewRRS(cfg)
	now := timing.Tick(0)
	for i := 0; i < 3000; i++ {
		r.OnACT(0, i%8, now)
		now += timing.NS(45)
	}
	if r.Swaps < 10 {
		t.Fatalf("only %d swaps", r.Swaps)
	}
	phys := make(map[int]int)
	for l := 0; l < cfg.RowsPerBank; l++ {
		p := r.TranslateRow(0, l)
		if p < 0 || p >= cfg.RowsPerBank {
			t.Fatalf("logical %d -> invalid physical %d", l, p)
		}
		if prev, dup := phys[p]; dup {
			t.Fatalf("physical %d claimed by logical %d and %d", p, prev, l)
		}
		phys[p] = l
	}
}

func TestNopMCSide(t *testing.T) {
	var n NopMCSide
	if n.Name() != "none" || n.TranslateRow(1, 5) != 5 {
		t.Fatal("NopMCSide misbehaves")
	}
	if n.ACTAllowedAt(0, 0, 7) != 7 || n.OnACT(0, 0, 7) != nil {
		t.Fatal("NopMCSide should never delay or swap")
	}
}

func TestRFMFilterSkipsColdIssuesHot(t *testing.T) {
	f := NewRFMFilter(512, 4, 16, 32*timing.Millisecond)
	now := timing.Tick(0)
	// Cold phase: spread ACTs.
	for i := 0; i < 64; i++ {
		f.Observe(0, i*13, now)
		now += timing.NS(45)
	}
	if f.ShouldRFM(0, now) {
		t.Fatal("filter issued RFM for spread accesses")
	}
	// Hot phase: concentrate.
	for i := 0; i < 32; i++ {
		f.Observe(0, 7, now)
		now += timing.NS(45)
	}
	if !f.ShouldRFM(0, now) {
		t.Fatal("filter skipped RFM for a hot row")
	}
	if f.Issued != 1 || f.Skipped != 1 {
		t.Fatalf("issued/skipped = %d/%d", f.Issued, f.Skipped)
	}
}

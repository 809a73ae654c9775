package memctrl

import (
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/timing"
)

// TestMCTRRPathExecutes drives Graphene through the controller and verifies
// the MC issues the victim activations (TRR stat) and that the victims'
// hammer pressure resets.
func TestMCTRRPathExecutes(t *testing.T) {
	g := mitigate.NewGraphene(mitigate.GrapheneConfig{
		Hammer:      hammer.Config{HCnt: 64, BlastRadius: 1}, // threshold 8
		RowsPerBank: dram.TestGeometry().PARowsPerBank(),
		REFW:        32 * timing.Millisecond,
	})
	c := newCtl(t, Options{MCSide: g}, 0)
	reqs := make([]*Request, 40)
	for i := range reqs {
		// Alternate the hot row with a cold one so every access activates.
		if i%2 == 0 {
			reqs[i] = &Request{Bank: 0, Row: 16, Col: 0}
		} else {
			reqs[i] = &Request{Bank: 0, Row: 3, Col: 0}
		}
	}
	driveSequential(t, c, reqs, 10*timing.Second)
	if g.Mitigations == 0 {
		t.Fatal("graphene never triggered through the MC")
	}
	if c.Stats.TRRs == 0 {
		t.Fatal("MC issued no TRR activations")
	}
	if c.Stats.TRRs != 2*g.Mitigations {
		t.Fatalf("TRR ACTs = %d, want 2 per mitigation (%d)", c.Stats.TRRs, g.Mitigations)
	}
	// Victims 15 and 17 were refreshed recently; pressure is low.
	sa := c.Device().Bank(0).Subarray(0)
	if p := sa.Hammer.Pressure(15); p > float64(g.Threshold())+2 {
		t.Errorf("victim 15 pressure %g despite TRR", p)
	}
}

// TestGrapheneDefendsThroughMC: end-to-end — an attack that flips the
// unprotected device is stopped by Graphene's MC-side TRR.
func TestGrapheneDefendsThroughMC(t *testing.T) {
	const hcnt = 96
	attack := func(mc mitigate.MCSide) int {
		p := timing.NewParams(timing.DDR4_2666)
		d, err := dram.NewDevice(dram.Config{
			Geometry: dram.TestGeometry(),
			Params:   p,
			Hammer:   hammer.Config{HCnt: hcnt, BlastRadius: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := New(d, Options{MCSide: mc, ClosedPage: true})
		now := timing.Tick(0)
		for i := 0; i < 4*hcnt; i++ {
			r := &Request{Bank: 0, Row: 16, Arrive: now}
			if !c.Enqueue(r) {
				t.Fatal("enqueue failed")
			}
			for c.QueuedRequests() > 0 || r.Done == 0 {
				next := c.Step(now)
				if next <= now {
					continue
				}
				now = next
			}
			// Let pending TRR work drain before the next attack access.
			deadline := now + 10*timing.Microsecond
			for now < deadline {
				next := c.Step(now)
				if next == timing.Forever || next > deadline {
					break
				}
				now = next
			}
		}
		return d.FlipCount()
	}

	if flips := attack(mitigate.NopMCSide{}); flips == 0 {
		t.Fatal("unprotected device survived")
	}
	g := mitigate.NewGraphene(mitigate.GrapheneConfig{
		Hammer:      hammer.Config{HCnt: hcnt, BlastRadius: 1},
		RowsPerBank: dram.TestGeometry().PARowsPerBank(),
		REFW:        32 * timing.Millisecond,
	})
	if flips := attack(g); flips != 0 {
		t.Fatalf("graphene let %d bits flip", flips)
	}
	if g.Mitigations == 0 {
		t.Fatal("graphene never mitigated")
	}
}

// TestPARADefendsThroughMC: classic PARA at p=1-ish stops the same attack.
func TestPARADefendsThroughMC(t *testing.T) {
	const hcnt = 96
	geo := dram.TestGeometry()
	pa := mitigate.NewPARA(hammer.Config{HCnt: hcnt, BlastRadius: 1}, geo.PARowsPerBank(), 7)
	p := timing.NewParams(timing.DDR4_2666)
	d, err := dram.NewDevice(dram.Config{
		Geometry: geo,
		Params:   p,
		Hammer:   hammer.Config{HCnt: hcnt, BlastRadius: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(d, Options{MCSide: pa, ClosedPage: true})
	now := timing.Tick(0)
	for i := 0; i < 4*hcnt; i++ {
		r := &Request{Bank: 0, Row: 16, Arrive: now}
		c.Enqueue(r)
		for c.QueuedRequests() > 0 || r.Done == 0 {
			next := c.Step(now)
			if next <= now {
				continue
			}
			now = next
		}
		deadline := now + 10*timing.Microsecond
		for now < deadline {
			next := c.Step(now)
			if next == timing.Forever || next > deadline {
				break
			}
			now = next
		}
	}
	if d.FlipCount() != 0 {
		t.Fatalf("PARA let %d bits flip", d.FlipCount())
	}
	if pa.Samples == 0 {
		t.Fatal("PARA never sampled")
	}
}

// TestSameBankRefresh: REFsb covers all rows per tREFW while only one bank
// stalls at a time.
func TestSameBankRefresh(t *testing.T) {
	p := timing.NewParams(timing.DDR5_4800)
	d, err := dram.NewDevice(dram.Config{
		Geometry: dram.TestGeometry(),
		Params:   p,
		Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(d, Options{SameBankRefresh: true})
	now := timing.Tick(0)
	end := 10 * p.REFI
	for now < end {
		next := c.Step(now)
		if next <= now {
			continue
		}
		if next > end {
			break
		}
		now = next
	}
	// Per-bank refreshes run banks-times as often as all-bank REF would.
	wantMin := int64(9 * d.Banks())
	if c.Stats.Refs < wantMin {
		t.Fatalf("REFsb count %d, want >= %d over 10 tREFI", c.Stats.Refs, wantMin)
	}
	// Every bank advanced its refresh pointer (RefRows spread across banks).
	perBank := map[int]int64{}
	for i := 0; i < d.Banks(); i++ {
		perBank[i] = d.Bank(i).Stats.RefRows
	}
	for i, n := range perBank {
		if n == 0 {
			t.Fatalf("bank %d never refreshed", i)
		}
	}
}

// TestSameBankRefreshRejectedOnDDR4: the DDR4 parameter set has no tRFCsb.
func TestSameBankRefreshRejectedOnDDR4(t *testing.T) {
	d, err := dram.NewDevice(dram.Config{
		Geometry: dram.TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SameBankRefresh on DDR4 accepted")
		}
	}()
	New(d, Options{SameBankRefresh: true})
}

// TestSameBankRefreshStreamClean: REFsb command streams pass the protocol
// checker (exercised here rather than in cmdtrace to avoid an import cycle).
func TestSameBankRefreshLessIntrusive(t *testing.T) {
	// Under the same light load, same-bank refresh must not be slower than
	// all-bank refresh for per-request latency-critical traffic, because
	// only 1/N of the banks is ever blocked.
	p := timing.NewParams(timing.DDR5_4800)
	mk := func(sameBank bool) timing.Tick {
		d, err := dram.NewDevice(dram.Config{
			Geometry: dram.TestGeometry(),
			Params:   p,
			Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := New(d, Options{SameBankRefresh: sameBank})
		var worst timing.Tick
		now := timing.Tick(0)
		rows := dram.TestGeometry().PARowsPerBank()
		for i := 0; i < 200; i++ {
			r := &Request{Bank: i % 4, Row: i % rows, Arrive: now}
			c.Enqueue(r)
			for r.Done == 0 {
				next := c.Step(now)
				if next <= now {
					continue
				}
				now = next
			}
			if lat := r.Done - r.Arrive; lat > worst {
				worst = lat
			}
			now += 200 * timing.Nanosecond // light, latency-sensitive load
		}
		return worst
	}
	allBank := mk(false)
	sameBank := mk(true)
	if sameBank > allBank {
		t.Fatalf("REFsb worst latency %v exceeds all-bank REF %v", sameBank, allBank)
	}
}

// TestTRRSurvivesRefreshDrain: a refresh drain that precharges a bank in the
// middle of a two-victim TRR must not leave the bank marked as holding a TRR
// activation. The second victim's ACT must still issue with no demand
// request following to clear the mark.
func TestTRRSurvivesRefreshDrain(t *testing.T) {
	var trrRows []int
	c := newCtl(t, Options{OnCommand: func(cmd Cmd) {
		if cmd.Kind == CmdACT {
			trrRows = append(trrRows, cmd.Row)
		}
	}}, 0)
	c.banks[0].trr = []int{5, 7}
	drained := false
	for now := timing.Tick(0); now < 20*timing.Microsecond; {
		if !drained && c.banks[0].trrOpen {
			// The first victim is open: make refresh due at once, so the
			// drain, not the TRR, closes the row.
			c.nextRefreshAt = now
			drained = true
		}
		next := c.Step(now)
		if next > now {
			now = next
		}
	}
	if !drained {
		t.Fatal("the first TRR activation never issued")
	}
	if c.Stats.Refs == 0 {
		t.Fatal("no refresh drained the bank")
	}
	if len(trrRows) != 2 || trrRows[0] != 5 || trrRows[1] != 7 || c.Stats.TRRs != 2 {
		t.Fatalf("TRR ACTs on rows %v (%d counted), want [5 7]", trrRows, c.Stats.TRRs)
	}
	if b := &c.banks[0]; b.open || b.trrOpen {
		t.Fatalf("bank left open=%v trrOpen=%v", b.open, b.trrOpen)
	}
}

package memctrl

import (
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/timing"
)

func newCtl(t *testing.T, opt Options, raaimt int) *Controller {
	t.Helper()
	p := timing.NewParams(timing.DDR4_2666)
	if raaimt > 0 {
		p = p.WithRAAIMT(raaimt)
	}
	d, err := dram.NewDevice(dram.Config{
		Geometry: dram.TestGeometry(),
		Params:   p,
		Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(d, opt)
}

// run drives the controller until all queued requests complete or the
// deadline passes, returning the latest completion (Done) among the requests
// served. The loop clock is no finishing time: once the queue empties, Step's
// bound lies at the next refresh.
func run(t *testing.T, c *Controller, deadline timing.Tick) timing.Tick {
	t.Helper()
	var last timing.Tick
	prev := c.opt.OnComplete
	c.opt.OnComplete = func(r *Request) {
		last = max(last, r.Done)
		if prev != nil {
			prev(r)
		}
	}
	defer func() { c.opt.OnComplete = prev }()
	now := timing.Tick(0)
	for now < deadline {
		if c.QueuedRequests() == 0 {
			return last
		}
		next := c.Step(now)
		if next <= now {
			continue
		}
		now = next
	}
	if c.QueuedRequests() > 0 {
		t.Fatalf("requests still pending at deadline %v (%d left)", deadline, c.QueuedRequests())
	}
	return last
}

func TestSingleReadLatency(t *testing.T) {
	c := newCtl(t, Options{}, 0)
	p := c.Device().Params()
	req := &Request{Bank: 0, Row: 10, Col: 2, Arrive: 0}
	if !c.Enqueue(req) {
		t.Fatal("enqueue failed")
	}
	run(t, c, timing.Millisecond)
	// Cold read: tRCD + tAA + tBL (plus a command-bus cycle alignment).
	want := p.RCD + p.AA + p.BL
	if req.Done < want || req.Done > want+4*p.TCK {
		t.Fatalf("read done at %v, want about %v", req.Done, want)
	}
	if c.Stats.Acts != 1 || c.Stats.Reads != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	// Two reads to the same row: second is a row hit.
	c := newCtl(t, Options{}, 0)
	a := &Request{Bank: 0, Row: 10, Col: 0}
	b := &Request{Bank: 0, Row: 10, Col: 5}
	c.Enqueue(a)
	c.Enqueue(b)
	run(t, c, timing.Millisecond)
	hitGap := b.Done - a.Done

	// Two reads to different rows: second needs PRE+ACT.
	c2 := newCtl(t, Options{}, 0)
	a2 := &Request{Bank: 0, Row: 10, Col: 0}
	b2 := &Request{Bank: 0, Row: 11, Col: 0}
	c2.Enqueue(a2)
	c2.Enqueue(b2)
	run(t, c2, timing.Millisecond)
	confGap := b2.Done - a2.Done

	if hitGap >= confGap {
		t.Fatalf("row hit gap %v not faster than conflict gap %v", hitGap, confGap)
	}
	if c.Stats.Acts != 1 {
		t.Fatalf("hit case used %d ACTs, want 1", c.Stats.Acts)
	}
	if c2.Stats.Acts != 2 {
		t.Fatalf("conflict case used %d ACTs, want 2", c2.Stats.Acts)
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	// N reads spread over banks finish much faster than N to one bank's
	// alternating rows.
	const n = 16
	c := newCtl(t, Options{}, 0)
	for i := 0; i < n; i++ {
		c.Enqueue(&Request{Bank: i % 4, Row: 5, Col: i})
	}
	parallel := run(t, c, timing.Millisecond)

	c2 := newCtl(t, Options{}, 0)
	for i := 0; i < n; i++ {
		c2.Enqueue(&Request{Bank: 0, Row: i, Col: 0})
	}
	serial := run(t, c2, timing.Millisecond)
	if parallel >= serial {
		t.Fatalf("parallel %v not faster than serial %v", parallel, serial)
	}
}

func TestRefreshIssuedPeriodically(t *testing.T) {
	c := newCtl(t, Options{}, 0)
	p := c.Device().Params()
	// Idle controller for ~10 tREFI with a trickle of requests.
	now := timing.Tick(0)
	end := 10 * p.REFI
	for now < end {
		next := c.Step(now)
		if next <= now {
			continue
		}
		now = minTick(next, end)
	}
	if c.Stats.Refs < 9 {
		t.Fatalf("only %d REFs in 10 tREFI", c.Stats.Refs)
	}
}

func TestRefreshDrainsOpenRow(t *testing.T) {
	c := newCtl(t, Options{}, 0)
	p := c.Device().Params()
	// Open a row just before refresh is due, then give a stream of hits: the
	// refresh must still happen (drain preempts new hits eventually).
	c.Enqueue(&Request{Bank: 0, Row: 3, Col: 0})
	now := timing.Tick(0)
	end := 3 * p.REFI
	for now < end {
		next := c.Step(now)
		if next <= now {
			continue
		}
		now = minTick(next, end)
	}
	if c.Stats.Refs < 2 {
		t.Fatalf("refresh starved: %d REFs in 3 tREFI", c.Stats.Refs)
	}
}

func TestRFMIssuedAtRAAIMT(t *testing.T) {
	const raaimt = 8
	c := newCtl(t, Options{}, raaimt)
	// 3*raaimt row conflicts in one bank -> at least 2 RFMs.
	for i := 0; i < 3*raaimt; i++ {
		c.Enqueue(&Request{Bank: 1, Row: i, Col: 0})
	}
	now := run(t, c, 10*timing.Millisecond)
	if c.Stats.RFMs < 1 {
		t.Fatalf("RFMs = %d, want >= 1 (urgent RFM before RAAMMT)", c.Stats.RFMs)
	}
	// Once the queue drains, deferred RFMs issue opportunistically until the
	// RAA counter falls below RAAIMT.
	for end := now + timing.Millisecond; now < end; {
		next := c.Step(now)
		if next <= now {
			continue
		}
		now = next
	}
	if c.Stats.RFMs < 2 {
		t.Fatalf("opportunistic RFMs never drained the counter: %d", c.Stats.RFMs)
	}
	if got := c.Device().Bank(1).Stats.RFMs; got != c.Stats.RFMs {
		t.Fatalf("device saw %d RFMs, MC issued %d", got, c.Stats.RFMs)
	}
}

func TestRFMFilterSkipsColdTraffic(t *testing.T) {
	p := timing.NewParams(timing.DDR4_2666)
	filter := mitigate.NewRFMFilter(512, 4, 1<<30 /* never hot */, p.REFW)
	c := newCtl(t, Options{RFMFilter: filter}, 8)
	for i := 0; i < 32; i++ {
		c.Enqueue(&Request{Bank: 0, Row: i, Col: 0})
	}
	run(t, c, 10*timing.Millisecond)
	if c.Stats.RFMs != 0 {
		t.Fatalf("filter failed to suppress RFMs: %d issued", c.Stats.RFMs)
	}
	if c.Stats.SkippedRFMs < 2 {
		t.Fatalf("SkippedRFMs = %d", c.Stats.SkippedRFMs)
	}
}

// driveSequential issues each request only after the previous completed, so
// alternating rows really do conflict (bulk enqueues would be reordered into
// row hits by FR-FCFS).
func driveSequential(t *testing.T, c *Controller, reqs []*Request, deadline timing.Tick) timing.Tick {
	t.Helper()
	now := timing.Tick(0)
	for _, r := range reqs {
		r.Arrive = now
		if !c.Enqueue(r) {
			t.Fatal("enqueue failed")
		}
		for c.QueuedRequests() > 0 {
			next := c.Step(now)
			if next <= now {
				continue
			}
			now = next
			if now > deadline {
				t.Fatalf("deadline exceeded with %d pending", c.QueuedRequests())
			}
		}
		if r.Done > now {
			now = r.Done
		}
	}
	return now
}

func TestBlockHammerDelaysHotRowThroughMC(t *testing.T) {
	p := timing.NewParams(timing.DDR4_2666)
	mk := func(mc mitigate.MCSide) timing.Tick {
		c := newCtl(t, Options{MCSide: mc}, 0)
		// Alternate two rows in one bank: every access is a row conflict,
		// and both rows quickly exceed the blacklist threshold.
		reqs := make([]*Request, 600)
		for i := range reqs {
			reqs[i] = &Request{Bank: 0, Row: i % 2, Col: 0}
		}
		return driveSequential(t, c, reqs, 10*timing.Second)
	}
	baseline := mk(mitigate.NopMCSide{})
	throttled := mk(mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
		Hammer: hammer.Config{HCnt: 512, BlastRadius: 1},
		REFW:   p.REFW,
	}))
	if throttled <= 2*baseline {
		t.Fatalf("BlockHammer did not slow the hot pair: baseline %v, throttled %v", baseline, throttled)
	}
}

func TestRRSSwapBlocksChannelAndPreservesData(t *testing.T) {
	g := dram.TestGeometry()
	rrs := mitigate.NewRRS(mitigate.RRSConfig{
		SwapThreshold: 8,
		RowsPerBank:   g.PARowsPerBank(),
		SwapLatency:   4 * timing.Microsecond,
		REFW:          32 * timing.Millisecond,
		Seed:          3,
	})
	c := newCtl(t, Options{MCSide: rrs}, 0)
	d := c.Device()
	wantData := append([]byte(nil), d.InspectPA(0, 7)...)
	var reqs []*Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs,
			&Request{Bank: 0, Row: 7, Col: 0},
			&Request{Bank: 0, Row: 20 + i%3, Col: 0}) // force conflicts
	}
	driveSequential(t, c, reqs, 10*timing.Second)
	if c.Stats.Swaps == 0 {
		t.Fatal("no swaps triggered")
	}
	if c.Stats.BlockedTime < 4*timing.Microsecond {
		t.Fatalf("BlockedTime = %v", c.Stats.BlockedTime)
	}
	// Logical row 7 still reads back its original data through the RIT.
	phys := rrs.TranslateRow(0, 7)
	got := d.InspectPA(0, phys)
	if string(got) != string(wantData) {
		t.Fatal("row 7 data lost across swaps")
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newCtl(t, Options{}, 0)
	for i := 0; i < queueCap; i++ {
		if !c.Enqueue(&Request{Bank: 0, Row: i}) {
			t.Fatalf("enqueue %d under cap failed", i)
		}
	}
	if c.Enqueue(&Request{Bank: 0, Row: queueCap}) {
		t.Fatal("enqueue over cap accepted")
	}
	if !c.Enqueue(&Request{Bank: 1, Row: 3}) {
		t.Fatal("other bank should have space")
	}
	if c.QueuedRequests() != queueCap+1 {
		t.Fatalf("QueuedRequests = %d", c.QueuedRequests())
	}
}

func TestOnCompleteCallback(t *testing.T) {
	var completed []*Request
	c := newCtl(t, Options{OnComplete: func(r *Request) { completed = append(completed, r) }}, 0)
	c.Enqueue(&Request{Bank: 0, Row: 1})
	c.Enqueue(&Request{Bank: 2, Row: 5, Write: true})
	run(t, c, timing.Millisecond)
	if len(completed) != 2 {
		t.Fatalf("completed = %d", len(completed))
	}
	for _, r := range completed {
		if r.Done == 0 {
			t.Fatal("completion without Done time")
		}
	}
	if c.Stats.CompletedWrites != 1 || c.Stats.CompletedReads != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 8, Writes: 2, RowMisses: 4, ReadLatency: 80, CompletedReads: 8}
	if got := s.RowHitRate(); got != 0.6 {
		t.Fatalf("RowHitRate = %g", got)
	}
	if got := s.AvgReadLatency(); got != 10 {
		t.Fatalf("AvgReadLatency = %v", got)
	}
	var zero Stats
	if zero.RowHitRate() != 0 || zero.AvgReadLatency() != 0 {
		t.Fatal("zero stats helpers")
	}
}

// TestShadowThroughController: end-to-end — SHADOW installed in the device,
// driven by the MC's RFM interface, defends a row-conflict hammer pattern.
func TestShadowThroughControllerIntegration(t *testing.T) {
	// Built in package sim tests (needs the shadow controller); here we only
	// verify a device-side mitigator receives MC-issued RFMs, via PARFM.
	m := mitigate.NewPARFM(3, 1)
	p := timing.NewParams(timing.DDR4_2666).WithRAAIMT(8)
	d, err := dram.NewDevice(dram.Config{
		Geometry:  dram.TestGeometry(),
		Params:    p,
		Hammer:    hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
		Mitigator: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(d, Options{})
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{Bank: 0, Row: i % 2, Col: 0}
	}
	driveSequential(t, c, reqs, 10*timing.Second)
	if m.TRRs == 0 {
		t.Fatal("device-side mitigator never saw an RFM")
	}
}

// TestFAWLimitsActivationBursts: more than four ACTs must not issue within a
// rolling tFAW window.
func TestFAWLimitsActivationBursts(t *testing.T) {
	c := newCtl(t, Options{}, 0)
	p := c.Device().Params()
	// 8 activations spread over the 4 banks (two conflicting rows each):
	// ACT-bound, limited by tFAW/tRRD.
	for i := 0; i < 8; i++ {
		c.Enqueue(&Request{Bank: i % 4, Row: i / 4, Col: 0})
	}
	actTimes := []timing.Tick{}
	now := timing.Tick(0)
	prevActs := int64(0)
	for c.QueuedRequests() > 0 && now < timing.Millisecond {
		next := c.Step(now)
		if c.Stats.Acts > prevActs {
			actTimes = append(actTimes, now)
			prevActs = c.Stats.Acts
		}
		if next <= now {
			continue
		}
		now = next
	}
	if len(actTimes) != 8 {
		t.Fatalf("%d ACTs recorded", len(actTimes))
	}
	// Any 5 consecutive ACTs must span at least tFAW.
	for i := 0; i+4 < len(actTimes); i++ {
		if span := actTimes[i+4] - actTimes[i]; span < p.FAW {
			t.Fatalf("5 ACTs within %v < tFAW %v", span, p.FAW)
		}
	}
	// And consecutive ACTs must honor tRRD_S.
	for i := 1; i < len(actTimes); i++ {
		if gap := actTimes[i] - actTimes[i-1]; gap < p.RRDS {
			t.Fatalf("ACT gap %v < tRRD_S %v", gap, p.RRDS)
		}
	}
}

// TestCCDLimitsColumnBursts: same-bank-group reads respect tCCD_L, and the
// data bus never overlaps bursts.
func TestCCDLimitsColumnBursts(t *testing.T) {
	c := newCtl(t, Options{}, 0)
	p := c.Device().Params()
	// 6 hits on one open row: column-command bound.
	for i := 0; i < 6; i++ {
		c.Enqueue(&Request{Bank: 0, Row: 4, Col: i})
	}
	rdTimes := []timing.Tick{}
	now := timing.Tick(0)
	prev := int64(0)
	for c.QueuedRequests() > 0 && now < timing.Millisecond {
		next := c.Step(now)
		if c.Stats.Reads > prev {
			rdTimes = append(rdTimes, now)
			prev = c.Stats.Reads
		}
		if next <= now {
			continue
		}
		now = next
	}
	if len(rdTimes) != 6 {
		t.Fatalf("%d reads recorded", len(rdTimes))
	}
	for i := 1; i < len(rdTimes); i++ {
		gap := rdTimes[i] - rdTimes[i-1]
		if gap < p.CCDL {
			t.Fatalf("same-bank-group RD gap %v < tCCD_L %v", gap, p.CCDL)
		}
		if gap < p.BL {
			t.Fatalf("RD gap %v < burst length %v: data bus overlap", gap, p.BL)
		}
	}
}

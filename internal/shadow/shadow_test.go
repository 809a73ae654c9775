package shadow

import (
	"testing"
	"testing/quick"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/rng"
	"shadow/internal/timing"
)

func TestTableCodecRoundTrip(t *testing.T) {
	tab := NewTable(513)
	data := make([]byte, tab.Bytes())
	f := func(slot uint16, da uint16) bool {
		s := int(slot) % 513
		d := int(da) % 513
		tab.SetSlot(data, s, d)
		return tab.Slot(data, s) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	tab.SetIncrPtr(data, 512)
	if tab.IncrPtr(data) != 512 {
		t.Fatalf("IncrPtr = %d", tab.IncrPtr(data))
	}
}

// TestTableFitsInRow: the paper stores the complete mapping of a 513-row
// subarray plus the incremental pointer in a single 1 KB remapping-row.
func TestTableFitsInRow(t *testing.T) {
	tab := NewTable(513)
	if tab.Bytes() > 1024 {
		t.Fatalf("encoded table = %dB, must fit a 1KB row", tab.Bytes())
	}
	if tab.EmptySlot() != 512 {
		t.Fatalf("EmptySlot = %d, want 512", tab.EmptySlot())
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]uint{2: 1, 3: 2, 4: 2, 512: 9, 513: 10, 1024: 10}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTableInitIdentityAndPermutation(t *testing.T) {
	tab := NewTable(33)
	data := make([]byte, tab.Bytes())
	tab.InitIdentity(data)
	for i := 0; i < 33; i++ {
		if tab.Slot(data, i) != i {
			t.Fatalf("identity slot %d = %d", i, tab.Slot(data, i))
		}
	}
	if err := tab.CheckPermutation(data); err != nil {
		t.Fatal(err)
	}
	tab.SetSlot(data, 3, 7) // now 7 appears twice
	if err := tab.CheckPermutation(data); err == nil {
		t.Fatal("CheckPermutation accepted a non-permutation")
	}
}

func TestPairOfInvolutionAndDistance(t *testing.T) {
	for _, dist := range []int{1, 2} {
		c := New(Options{PairDistance: dist, Seed: 1})
		const subs = 16
		for s := 0; s < subs; s++ {
			p := c.PairOf(s, subs)
			if p == s {
				t.Errorf("dist %d: subarray %d paired with itself", dist, s)
			}
			if back := c.PairOf(p, subs); back != s {
				t.Errorf("dist %d: pairing not involutive: %d->%d->%d", dist, s, p, back)
			}
			if got := abs(p - s); got != dist {
				t.Errorf("dist %d: |pair-sub| = %d", dist, got)
			}
		}
	}
	// Open-bitline pairing must sandwich one subarray: pairs (0,2),(1,3),...
	c := New(Options{PairDistance: 2, Seed: 1})
	if c.PairOf(0, 8) != 2 || c.PairOf(1, 8) != 3 || c.PairOf(4, 8) != 6 {
		t.Error("open-bitline pairing shape wrong")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func newShadowDevice(t *testing.T, hcnt int) (*dram.Device, *Controller) {
	t.Helper()
	c := New(Options{Seed: 42})
	d, err := dram.NewDevice(dram.Config{
		Geometry:  dram.TestGeometry(),
		Params:    timing.NewParams(timing.DDR4_2666).WithRAAIMT(8).WithShadow(timing.ShadowTimings{RDRM: timing.NS(4), RCDRM: timing.NS(2.3), WRRM: timing.NS(9), RowCopy: timing.NS(73.9), CopyRestoreFrac: 0.55}),
		Hammer:    hammer.Config{HCnt: hcnt, BlastRadius: 3},
		Mitigator: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

func TestTranslateIdentityBeforeShuffle(t *testing.T) {
	d, _ := newShadowDevice(t, 1<<20)
	g := d.Geometry()
	for pa := 0; pa < g.PARowsPerBank(); pa += 7 {
		if err := d.Activate(0, pa, timing.Tick(pa)*d.Params().RC); err != nil {
			t.Fatal(err)
		}
		sub, da, ok := d.Bank(0).Open()
		wsub, wda := g.SubarrayOf(pa)
		if !ok || sub != wsub || da != wda {
			t.Fatalf("PA %d opened (%d,%d), want (%d,%d)", pa, sub, da, wsub, wda)
		}
		if err := d.Precharge(0, timing.Tick(pa)*d.Params().RC+d.Params().RAS); err != nil {
			t.Fatal(err)
		}
	}
}

// hammerRow drives `n` ACT-PRE pairs on one PA row, issuing an RFM whenever
// the bank's RAA counter reaches RAAIMT — exactly the MC behaviour of the
// JEDEC RFM interface. Returns the final time.
func hammerRow(t *testing.T, d *dram.Device, bank, pa, n int, now timing.Tick) timing.Tick {
	t.Helper()
	p := d.Params()
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
	return now
}

func TestShuffleChangesMappingAndPreservesData(t *testing.T) {
	d, c := newShadowDevice(t, 1<<20)
	g := d.Geometry()
	b := d.Bank(0)

	before := c.MappingOf(b, 0)
	hammerRow(t, d, 0, 3, 200, 0)
	after := c.MappingOf(b, 0)

	if c.Stats.Shuffles == 0 {
		t.Fatal("no shuffles executed")
	}
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("mapping unchanged after 25 shuffles")
	}
	if err := c.CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
	// Every PA row in the shuffled subarray still reads back its original
	// data: shuffling must be transparent.
	for pa := 0; pa < g.RowsPerSubarray; pa++ {
		if bits := d.CorruptedBitsPA(0, pa); bits != 0 {
			t.Fatalf("PA row %d lost data after shuffles: %d corrupted bits", pa, bits)
		}
	}
}

// TestShuffleSemantics pins the exact Section IV-B dance on a single RFM:
// Row_rand -> Row_empt, Row_aggr -> old Row_rand, old Row_aggr becomes empty.
func TestShuffleSemantics(t *testing.T) {
	d, c := newShadowDevice(t, 1<<20)
	b := d.Bank(0)
	before := c.MappingOf(b, 0)
	emptyBefore := before[len(before)-1]

	// One burst of ACTs on PA row 5, then one RFM. The reservoir sample is
	// guaranteed to be row 5 (it is the only activated row).
	now := hammerRow(t, d, 0, 5, d.Params().RAAIMT, 0)
	_ = now
	after := c.MappingOf(b, 0)
	if c.Stats.Shuffles != 1 {
		t.Fatalf("Shuffles = %d, want 1", c.Stats.Shuffles)
	}

	daAggrBefore := before[5]
	daAggrAfter := after[5]
	if daAggrAfter == daAggrBefore {
		t.Fatal("aggressor row did not move")
	}
	// The aggressor moved to some row's old DA; that row moved to the old
	// empty row; the old aggressor DA is the new empty.
	randIdx := -1
	for i := range before {
		if i != 5 && before[i] != after[i] {
			if i == len(before)-1 {
				continue // empty slot
			}
			randIdx = i
		}
	}
	if randIdx < 0 {
		t.Fatal("no random partner row moved")
	}
	if after[5] != before[randIdx] {
		t.Fatalf("aggressor at DA %d, want Row_rand's old DA %d", after[5], before[randIdx])
	}
	if after[randIdx] != emptyBefore {
		t.Fatalf("Row_rand at DA %d, want old empty DA %d", after[randIdx], emptyBefore)
	}
	if after[len(after)-1] != daAggrBefore {
		t.Fatalf("new empty = %d, want aggressor's old DA %d", after[len(after)-1], daAggrBefore)
	}
	if err := c.CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRefreshAdvances(t *testing.T) {
	d, c := newShadowDevice(t, 1<<20)
	b := d.Bank(0)
	tab, data := c.table(b, 0)
	if tab.IncrPtr(data) != 0 {
		t.Fatal("pointer not initialized to 0")
	}
	hammerRow(t, d, 0, 1, 3*d.Params().RAAIMT, 0)
	if c.Stats.IncRefreshes != 3 {
		t.Fatalf("IncRefreshes = %d, want 3", c.Stats.IncRefreshes)
	}
	if got := tab.IncrPtr(data); got != 3 {
		t.Fatalf("pointer = %d, want 3", got)
	}
}

// TestShadowPreventsSingleRowFlip: an attack that trivially flips bits on
// the unprotected device is defeated by SHADOW at the same H_cnt.
func TestShadowPreventsSingleRowFlip(t *testing.T) {
	const hcnt = 256
	// Baseline: flips after hcnt ACTs.
	base, err := dram.NewDevice(dram.Config{
		Geometry: dram.TestGeometry(),
		Params:   timing.NewParams(timing.DDR4_2666),
		Hammer:   hammer.Config{HCnt: hcnt, BlastRadius: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := timing.Tick(0)
	for i := 0; i < 4*hcnt; i++ {
		if err := base.Activate(0, 16, now); err != nil {
			t.Fatal(err)
		}
		now += base.Params().RAS
		if err := base.Precharge(0, now); err != nil {
			t.Fatal(err)
		}
		now += base.Params().RP
	}
	if base.FlipCount() == 0 {
		t.Fatal("baseline device did not flip")
	}

	// SHADOW with RAAIMT 8 (hcnt/RAAIMT = 32 evasion rounds needed).
	d, c := newShadowDevice(t, hcnt)
	hammerRow(t, d, 0, 16, 4*hcnt, 0)
	if d.FlipCount() != 0 {
		t.Fatalf("SHADOW device flipped %d bits under single-row hammering", d.FlipCount())
	}
	if c.Stats.Shuffles == 0 {
		t.Fatal("no shuffles")
	}
}

func TestIdleRFMDoesNothing(t *testing.T) {
	d, c := newShadowDevice(t, 1<<20)
	if err := d.RFM(0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Shuffles != 0 || c.Stats.IdleRFMs != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestAblationFlags(t *testing.T) {
	c := New(Options{Seed: 9, DisableIncrementalRefresh: true})
	d, err := dram.NewDevice(dram.Config{
		Geometry:  dram.TestGeometry(),
		Params:    timing.NewParams(timing.DDR4_2666).WithRAAIMT(8),
		Hammer:    hammer.Config{HCnt: 1 << 20, BlastRadius: 1},
		Mitigator: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	hammerRow(t, d, 0, 1, 64, 0)
	if c.Stats.IncRefreshes != 0 || c.Stats.Shuffles == 0 {
		t.Fatalf("incref-ablated stats = %+v", c.Stats)
	}
}

// TestManyShufflesPermutationProperty: after hundreds of shuffles across
// several subarrays and banks, every table remains a permutation and all
// data is intact.
func TestManyShufflesPermutationProperty(t *testing.T) {
	d, c := newShadowDevice(t, 1<<20)
	g := d.Geometry()
	now := timing.Tick(0)
	src := rng.NewCSPRNG(7)
	p := d.Params()
	for i := 0; i < 2000; i++ {
		bank := rng.Intn(src, g.Banks)
		pa := rng.Intn(src, g.PARowsPerBank())
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
	if c.Stats.Shuffles < 100 {
		t.Fatalf("only %d shuffles", c.Stats.Shuffles)
	}
	for bank := 0; bank < g.Banks; bank++ {
		if err := c.CheckInvariants(d.Bank(bank)); err != nil {
			t.Fatal(err)
		}
		for pa := 0; pa < g.PARowsPerBank(); pa++ {
			if bits := d.CorruptedBitsPA(bank, pa); bits != 0 {
				t.Fatalf("bank %d PA %d: %d corrupted bits", bank, pa, bits)
			}
		}
	}
}

func TestControllerName(t *testing.T) {
	if New(Options{}).Name() != "shadow" {
		t.Fatal("unexpected controller name")
	}
}

// TestOpenBitlinePairingFullRun exercises the Section V-B open-bitline
// configuration (pairing distance 2) end-to-end.
func TestOpenBitlinePairingFullRun(t *testing.T) {
	c := New(Options{Seed: 5, PairDistance: 2})
	d, err := dram.NewDevice(dram.Config{
		Geometry:  dram.TestGeometry(),
		Params:    timing.NewParams(timing.DDR4_2666).WithRAAIMT(8),
		Hammer:    hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
		Mitigator: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	// Hammer rows across all subarrays of bank 0.
	now := timing.Tick(0)
	for i := 0; i < 400; i++ {
		pa := (i * 7) % g.PARowsPerBank()
		if err := d.Activate(0, pa, now); err != nil {
			t.Fatal(err)
		}
		now += d.Params().RAS
		if err := d.Precharge(0, now); err != nil {
			t.Fatal(err)
		}
		now += d.Params().RP
		if d.Bank(0).RAA >= 8 {
			if err := d.RFM(0, now); err != nil {
				t.Fatal(err)
			}
			now += d.Params().RFM
		}
	}
	if c.Stats.Shuffles == 0 {
		t.Fatal("no shuffles under open-bitline pairing")
	}
	if err := c.CheckInvariants(d.Bank(0)); err != nil {
		t.Fatal(err)
	}
	for pa := 0; pa < g.PARowsPerBank(); pa++ {
		if bits := d.CorruptedBitsPA(0, pa); bits != 0 {
			t.Fatalf("PA %d corrupted under open-bitline pairing", pa)
		}
	}
}

package memctrl

import (
	"fmt"
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/obs/span"
	"shadow/internal/rng"
	"shadow/internal/timing"
)

// floorGeo has 16 banks in 4 groups, so tRRD_S, tRRD_L and tFAW all bind.
var floorGeo = dram.Geometry{Banks: 16, SubarraysPerBank: 4, RowsPerSubarray: 32, RowBytes: 64, ExtraRows: 1}

// floorCase is one controller configuration of the generated-input grid.
type floorCase struct {
	name    string
	grade   timing.Grade
	raaimt  int
	wideFAW bool
	// spans attaches a span tracker to the controller and the device.
	spans bool
	opt   Options
	mc    func() mitigate.MCSide
}

// floorCases covers open and closed page on DDR4 and DDR5, RFMs
// coming due at a small RAAIMT while ACT spacing binds, RRS swapping rows
// (each swap precharges its bank and blocks the channel), BlockHammer
// throttling rows across several filter epochs,
// and span tracking (which re-keys every non-idle bank at every command), on
// its own and with throttling. With the stock DDR4 and DDR5 timings, ACT
// spacing never outlasts the tRP that follows a PRE (tFAW < 3*tRRD_S + tRP),
// so one case doubles tFAW: there an RFM can follow its PRE before the next
// ACT could.
func floorCases() []floorCase {
	rrs := func() mitigate.MCSide {
		return mitigate.NewRRS(mitigate.RRSConfig{
			SwapThreshold: 6,
			RowsPerBank:   floorGeo.PARowsPerBank(),
			SwapLatency:   100 * timing.Nanosecond,
			REFW:          32 * timing.Millisecond,
			Seed:          5,
		})
	}
	blockhammer := func() mitigate.MCSide {
		return mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
			Hammer: hammer.Config{HCnt: 32, BlastRadius: 1},
			REFW:   50 * timing.Microsecond,
			Seed:   5,
		})
	}
	return []floorCase{
		{name: "open", grade: timing.DDR4_2666},
		{name: "closed", grade: timing.DDR4_2666, opt: Options{ClosedPage: true}},
		{name: "open-rfm", grade: timing.DDR4_2666, raaimt: 4},
		{name: "closed-rfm", grade: timing.DDR4_2666, raaimt: 2, opt: Options{ClosedPage: true}},
		{name: "closed-rfm-wide-faw", grade: timing.DDR4_2666, raaimt: 2, wideFAW: true, opt: Options{ClosedPage: true}},
		{name: "ddr5", grade: timing.DDR5_4800},
		{name: "ddr5-closed-rfm", grade: timing.DDR5_4800, raaimt: 3, opt: Options{ClosedPage: true}},
		{name: "rrs", grade: timing.DDR4_2666, mc: rrs},
		{name: "rrs-closed-rfm", grade: timing.DDR4_2666, raaimt: 4, opt: Options{ClosedPage: true}, mc: rrs},
		{name: "throttle", grade: timing.DDR4_2666, mc: blockhammer},
		{name: "spans", grade: timing.DDR4_2666, raaimt: 4, spans: true},
		{name: "spans-throttle", grade: timing.DDR4_2666, spans: true, mc: blockhammer},
	}
}

// forEachFloorCase runs fn as a subtest for every case of the grid at seeds
// 1-3, with a fresh device and the case's options. fn sets its own hooks on
// opt and builds the controller. After fn, the run must have served every
// request, the RFM cases must have issued one, RRS must have swapped rows
// and BlockHammer must have blacklisted an ACT.
func forEachFloorCase(t *testing.T, fn func(t *testing.T, d *dram.Device, seed uint64, opt Options) *Controller) {
	hc := hammer.Config{HCnt: 1 << 20, BlastRadius: 1}
	for _, tc := range floorCases() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				p := timing.NewParams(tc.grade)
				if tc.raaimt > 0 {
					p = p.WithRAAIMT(tc.raaimt)
				}
				if tc.wideFAW {
					p.FAW *= 2
				}
				opt := tc.opt
				if tc.spans {
					opt.Spans = span.NewTracker(floorGeo.Banks, 1024, nil)
				}
				d, err := dram.NewDevice(dram.Config{Geometry: floorGeo, Params: p, Hammer: hc, Spans: opt.Spans})
				if err != nil {
					t.Fatal(err)
				}
				if tc.mc != nil {
					opt.MCSide = tc.mc()
				}
				c := fn(t, d, seed, opt)
				if n := c.QueuedRequests(); n > 0 {
					t.Fatalf("%d requests still queued at the end of the run", n)
				}
				if tc.raaimt > 0 && c.Stats.RFMs == 0 {
					t.Fatal("no RFM came due")
				}
				bh, throttles := opt.MCSide.(*mitigate.BlockHammer)
				switch {
				case throttles && bh.Blacklisted == 0:
					t.Fatal("BlockHammer blacklisted no ACT")
				case tc.mc != nil && !throttles && c.Stats.Swaps == 0:
					t.Fatal("no RRS swap")
				}
			})
		}
	}
}

// TestFloorBoundsNextCommand checks, on generated inputs, the keys a bank is
// filed under at the re-key that follows every command on it and at every
// Enqueue on it: the latest such key must be a lower bound on the next
// command the phases issue on that bank. Refresh commands and the PREs of a
// refresh drain are exempt: the refresh deadline schedules them, not the
// bank keys (a drain closes idle banks, keyed at Forever, and banks whose key
// waits on a row hit). Every request must also be served by the end of the
// run, so a key that is never lowered for new work fails too. In the
// wide-tFAW case, a floor that applied ACT spacing to an RFM-due bank would
// be too late.
func TestFloorBoundsNextCommand(t *testing.T) {
	forEachFloorCase(t, func(t *testing.T, d *dram.Device, seed uint64, opt Options) *Controller {
		bound := make([]timing.Tick, floorGeo.Banks) // 0: no bound recorded yet
		commanded, checked := -1, 0
		var c *Controller
		opt.OnCommand = func(cmd Cmd) {
			commanded = cmd.Bank
			if cmd.Bank < 0 || cmd.Kind == CmdPRE && c.refreshDrain {
				return
			}
			if cmd.At < bound[cmd.Bank] {
				t.Fatalf("%v on bank %d at %v, before its key %v", cmd.Kind, cmd.Bank, cmd.At, bound[cmd.Bank])
			}
			checked++
		}
		c = New(d, opt)
		driveFloorCheck(c, seed, func(r *Request) {
			bound[r.Bank] = c.ready[r.Bank]
		}, func(now, next timing.Tick) {
			if commanded >= 0 {
				bound[commanded] = c.ready[commanded]
			}
			commanded = -1
		})
		if checked < 1000 {
			t.Fatalf("only %d commands checked", checked)
		}
		return c
	})
}

// TestEnqueueLowersBound checks the channel's bound (NextAt) after every
// Enqueue on the generated inputs, whose driver steps the controller at
// every arrival whatever the bound says. The bound must not exceed the next
// command, and it must not fall into the command-bus or swap-blocking window
// unless it already lay there: a Step inside them is a no-op.
func TestEnqueueLowersBound(t *testing.T) {
	forEachFloorCase(t, func(t *testing.T, d *dram.Device, seed uint64, opt Options) *Controller {
		armed, bound, checked := false, timing.Tick(0), 0
		opt.OnCommand = func(cmd Cmd) {
			if !armed {
				return
			}
			if cmd.At < bound {
				t.Fatalf("%v on bank %d at %v, before the bound %v its arrival left", cmd.Kind, cmd.Bank, cmd.At, bound)
			}
			checked++
		}
		c := New(d, opt)
		before := c.NextAt()
		driveFloorCheck(c, seed, func(r *Request) {
			bound = c.NextAt()
			if gate := max(c.cmdBusFreeAt, c.blockedUntil); bound < min(before, gate) {
				t.Fatalf("Enqueue at %v lowered the bound from %v to %v, inside the window ending at %v", r.Arrive, before, bound, gate)
			}
			armed, before = true, bound
		}, func(now, next timing.Tick) {
			armed, before = false, next
		})
		if checked == 0 {
			t.Fatal("no command followed an arrival")
		}
		return c
	})
}

// TestLiveMaskMatchesKeys checks, after every Enqueue and Step on generated
// inputs, that bit i of the live mask is set exactly when bank i's key is
// below Forever: the collection pass and NextReadyAt walk only those banks.
func TestLiveMaskMatchesKeys(t *testing.T) {
	forEachFloorCase(t, func(t *testing.T, d *dram.Device, seed uint64, opt Options) *Controller {
		c := New(d, opt)
		check := func(op string, now timing.Tick) {
			for i, key := range c.ready {
				if live := c.live>>uint(i)&1 == 1; live != (key < timing.Forever) {
					t.Fatalf("after %s at %v: bank %d keyed %v, live bit %v", op, now, i, key, live)
				}
			}
		}
		driveFloorCheck(c, seed, func(r *Request) { check("Enqueue", r.Arrive) }, func(now, _ timing.Tick) {
			check("Step", now)
		})
		return c
	})
}

// TestStepReturnsBound checks Step's return on the same generated inputs. It
// must be the channel's whole bound, throttled and span-tracked banks
// included, so that a driver may sleep until it without asking NextReadyAt:
// after a command it equals NextReadyAt(now), which lies past now, and
// otherwise it is never below NextReadyAt(now). NextReadyAt scans every
// bank's key; Step reaches the same value from the keys its own scan already
// read.
func TestStepReturnsBound(t *testing.T) {
	forEachFloorCase(t, func(t *testing.T, d *dram.Device, seed uint64, opt Options) *Controller {
		issued, checked := false, 0
		opt.OnCommand = func(Cmd) { issued = true }
		c := New(d, opt)
		driveFloorCheck(c, seed, func(*Request) {}, func(now, next timing.Tick) {
			want := c.NextReadyAt(now)
			switch {
			case issued && next <= now:
				t.Fatalf("Step at %v issued a command and returned %v, not past now", now, next)
			case issued && next != want:
				t.Fatalf("Step at %v issued a command and returned %v, NextReadyAt %v", now, next, want)
			case next < want:
				t.Fatalf("Step at %v returned %v, below NextReadyAt %v", now, next, want)
			}
			if issued {
				checked++
			}
			issued = false
		})
		if checked < 1000 {
			t.Fatalf("only %d commands checked", checked)
		}
		return c
	})
}

// driveFloorCheck feeds c generated requests (a few hot rows per bank, so
// both hits and conflicts occur, a quarter of them writes) in arrival bursts
// until 4096 have arrived, and steps it at every instant its Step returns
// until the end of the run. It calls enqueued after every accepted request
// and afterStep with the instant and the return of every Step.
func driveFloorCheck(c *Controller, seed uint64, enqueued func(*Request), afterStep func(now, next timing.Tick)) {
	src := rng.NewCSPRNG(seed)
	banks := c.Device().Banks()
	p := c.Device().Params()
	horizon := 200 * timing.Microsecond
	nextArrive := timing.Tick(0)
	reqs := make([]Request, 0, 4096)
	for now := timing.Tick(0); now < horizon; {
		for nextArrive <= now && len(reqs) < cap(reqs) {
			for n := 1 + rng.Intn(src, 6); n > 0 && len(reqs) < cap(reqs); n-- {
				reqs = append(reqs, Request{
					Bank:   rng.Intn(src, banks),
					Row:    rng.Intn(src, 4) * 7,
					Col:    rng.Intn(src, 32),
					Write:  rng.Intn(src, 4) == 0,
					Arrive: now,
				})
				if r := &reqs[len(reqs)-1]; c.Enqueue(r) { // a full queue drops the request
					enqueued(r)
				}
			}
			nextArrive = now + timing.Tick(1+rng.Intn(src, 40))*p.TCK
		}
		next := c.Step(now)
		afterStep(now, next)
		if next <= now {
			continue
		}
		if len(reqs) < cap(reqs) && nextArrive < next {
			next = nextArrive
		}
		now = next
	}
}

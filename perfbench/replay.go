package main

import (
	"fmt"
	"sort"
	"time"

	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/obs/flight"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// Frozen-input replays: each feeds a layer the exact inputs it saw in the
// traced run, through the layer's public API, and times it in bulk. This is
// how the benchmark times layers that sim.Run calls internally without a
// clock read per call (a clock read costs about as much as a Translate).

// trackerSchemes are the DRAM-side trackers timed on the recorded stream.
var trackerSchemes = []exp.Scheme{exp.PARFM, exp.MithrilPerf, exp.MithrilArea}

// freshMitigator builds the workload's scheme anew, with its initial state.
func (j *job) freshMitigator(s exp.Scheme) dram.Mitigator {
	pt := j.point()
	pt.Scheme = s
	_, m, _ := pt.Build(geometry(), j.duration)
	return m
}

func (j *job) newDevice(m dram.Mitigator) (*dram.Device, error) {
	return dram.NewDevice(dram.Config{Geometry: geometry(), Params: j.params, Hammer: j.hammer, Mitigator: m})
}

// layerMetrics runs every replay on one recording. out is the traced run's
// checked output; children is the host time of the replays that cover the
// layers below sim.Run (trace generation and the controller with everything
// under it), from which the caller derives sim's self time; it is 0 for the
// attack.
func layerMetrics(j *job, rec *recording, out pointOutput) (m map[string]float64, children float64, err error) {
	m = map[string]float64{}
	ncmd := float64(len(rec.cmds))
	for kind, name := range map[memctrl.CmdKind]string{
		memctrl.CmdACT: "act", memctrl.CmdPRE: "pre", memctrl.CmdRD: "rd",
		memctrl.CmdWR: "wr", memctrl.CmdREF: "ref", memctrl.CmdRFM: "rfm",
	} {
		m["memctrl.cmds."+name] = 0
		for _, c := range rec.cmds {
			if memctrl.CmdKind(c.kind) == kind {
				m["memctrl.cmds."+name]++
			}
		}
	}
	m["memctrl.row_hit_frac"] = out.Stats.RowHitRate()

	var mcDur time.Duration
	var steps int64
	var replayHash uint64
	if j.pattern != nil {
		mcDur, steps, replayHash, err = replayAttackController(j, rec.patRows)
	} else {
		mcDur, steps, replayHash, err = replayController(j, rec.reqs)
		var calls int64
		for _, n := range rec.nextCalls {
			calls += n
		}
		genDur := replayGenerators(j, rec.nextCalls)
		children = genDur.Seconds()
		m["trace.next_calls"] = float64(calls)
		m["trace.next_ns"] = nsPer(genDur, calls)
		m["trace.replay_s"] = genDur.Seconds()
		m["sim.wakeups"] = float64(rec.wakeups)
		m["sim.jump_ticks_p50"] = float64(medianTicks(rec.jumps))
		m["sim.cmds_per_wakeup"] = ncmd / float64(rec.wakeups)
	}
	if err != nil {
		return nil, 0, err
	}
	if got := fmt.Sprintf("%016x", replayHash); got != out.CmdHash {
		return nil, 0, fmt.Errorf("controller replay diverged: command hash %s, traced run %s", got, out.CmdHash)
	}
	if j.pattern == nil {
		// The attack loop lives in sim but is what the controller replay
		// re-runs, so sim has no self time to separate there.
		children += mcDur.Seconds()
	}
	m["memctrl.replay_s"] = mcDur.Seconds()
	m["memctrl.step_ns"] = nsPer(mcDur, steps)
	m["memctrl.cmds_per_step"] = ncmd / float64(steps)

	devDur, err := replayDevice(j, rec.cmds, j.freshMitigator(exp.Shadow))
	if err != nil {
		return nil, 0, err
	}
	idDur, err := replayDevice(j, rec.cmds, dram.Identity{})
	if err != nil {
		return nil, 0, fmt.Errorf("identity: %w", err)
	}
	m["dram.replay_ns_per_cmd"] = nsPer(devDur, int64(len(rec.cmds)))
	m["dram.replay_identity_ns_per_cmd"] = nsPer(idDur, int64(len(rec.cmds)))

	calls := rec.mit.calls
	if err := verifyReplay(j, j.freshMitigator(exp.Shadow), calls); err != nil {
		return nil, 0, fmt.Errorf("shadow replay: %w", err)
	}
	sh, err := replayMitigator(j, j.freshMitigator(exp.Shadow), calls)
	if err != nil {
		return nil, 0, err
	}
	m["shadow.translate_calls"] = float64(sh.acts)
	m["shadow.onrfm_calls"] = float64(sh.rfms)
	m["shadow.translate_ns"] = nsPer(sh.translate, sh.acts)
	m["shadow.onact_ns"] = nsPer(sh.onact, sh.acts)
	m["shadow.onrfm_ns"] = nsPer(sh.onrfm, sh.rfms)

	m["hammer.activate_ns"] = replayHammer(j, calls)

	for _, s := range trackerSchemes {
		t, err := replayMitigator(j, j.freshMitigator(s), calls)
		if err != nil {
			return nil, 0, fmt.Errorf("%s replay: %w", s, err)
		}
		m["mitigate."+string(s)+".onact_ns"] = nsPer(t.onact, t.acts)
		m["mitigate."+string(s)+".onrfm_ns"] = nsPer(t.onrfm, t.rfms)
	}
	return m, children, nil
}

// replayGenerators rebuilds the workload's generators and draws as many
// events from each as the traced run did.
func replayGenerators(j *job, calls []int64) time.Duration {
	gens := trace.Generators(j.profiles, geometry(), j.seed)
	start := time.Now()
	for i, g := range gens {
		for k := int64(0); k < calls[i]; k++ {
			g.Next()
		}
	}
	return time.Since(start)
}

// replayController enqueues the recorded requests into a fresh controller
// at their recorded instants and steps it the way the per-tick runner does:
// at every arrival and at every bound Step returns. The command hash must
// equal the traced run's.
func replayController(j *job, reqs []request) (time.Duration, int64, uint64, error) {
	dev, err := j.newDevice(j.freshMitigator(exp.Shadow))
	if err != nil {
		return 0, 0, 0, err
	}
	hash := flight.NewCmdHash()
	mc := memctrl.New(dev, memctrl.Options{
		OnCommand: func(c memctrl.Cmd) { hash.Note(int(c.Kind), c.Bank, c.Row, c.At) },
	})
	rs := make([]memctrl.Request, len(reqs))
	for i, r := range reqs {
		rs[i] = memctrl.Request{Bank: r.ev.Bank, Row: r.ev.Row, Col: r.ev.Col, Write: r.ev.Write, Arrive: r.at}
	}
	var steps int64
	start := time.Now()
	for now, i := timing.Tick(0), 0; now < j.duration; {
		for ; i < len(rs) && rs[i].Arrive <= now; i++ {
			if !mc.Enqueue(&rs[i]) {
				return 0, 0, 0, fmt.Errorf("controller replay: bank %d queue full at %v", rs[i].Bank, now)
			}
		}
		next := now
		for next <= now {
			next = mc.Step(now)
			steps++
		}
		if i < len(rs) && rs[i].Arrive < next {
			next = rs[i].Arrive
		}
		now = next
	}
	return time.Since(start), steps, hash.Sum(), nil
}

// replayAttackController drives a fresh closed-page controller with the
// recorded attack rows, one access in flight, exactly as sim.RunAttack does.
func replayAttackController(j *job, rows [][2]int32) (time.Duration, int64, uint64, error) {
	dev, err := j.newDevice(j.freshMitigator(exp.Shadow))
	if err != nil {
		return 0, 0, 0, err
	}
	hash := flight.NewCmdHash()
	mc := memctrl.New(dev, memctrl.Options{
		ClosedPage: true,
		OnCommand:  func(c memctrl.Cmd) { hash.Note(int(c.Kind), c.Bank, c.Row, c.At) },
	})
	var (
		req     memctrl.Request
		cur     *memctrl.Request
		steps   int64
		ctlNext timing.Tick
		dirty   = true
		i       int
	)
	start := time.Now()
	for now := timing.Tick(0); now < attackHorizon; {
		if cur == nil || cur.Done > 0 {
			if cur != nil && cur.Done > now {
				now = cur.Done
			}
			if i == len(rows) {
				break
			}
			cur = &req
			*cur = memctrl.Request{Bank: int(rows[i][0]), Row: int(rows[i][1]), Arrive: now}
			i++
			if !mc.Enqueue(cur) {
				return 0, 0, 0, fmt.Errorf("attack replay: enqueue failed at %v", now)
			}
			dirty = true
		}
		if dirty || ctlNext <= now || mc.Volatile() {
			pend := mc.Step(now)
			steps++
			dirty = false
			if pend <= now {
				continue
			}
			ctlNext = pend
			if !mc.Volatile() {
				if b := mc.NextReadyAt(now); b > ctlNext {
					ctlNext = b
				}
			}
		}
		next := ctlNext
		if cur.Done > 0 && cur.Done < next {
			next = cur.Done
		}
		if next <= now {
			next = now + j.params.TCK
		}
		now = next
	}
	return time.Since(start), steps, hash.Sum(), nil
}

// replayDevice issues the recorded command stream, at its recorded times,
// to a fresh device running mitigator m.
func replayDevice(j *job, cmds []cmd, m dram.Mitigator) (time.Duration, error) {
	dev, err := j.newDevice(m)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, c := range cmds {
		bank := int(c.bank)
		switch memctrl.CmdKind(c.kind) {
		case memctrl.CmdACT:
			err = dev.Activate(bank, int(c.row), c.at)
		case memctrl.CmdPRE:
			err = dev.Precharge(bank, c.at)
		case memctrl.CmdRD:
			err = dev.Read(bank, c.at)
		case memctrl.CmdWR:
			err = dev.Write(bank, c.at)
		case memctrl.CmdREF:
			err = dev.Refresh(c.at)
		case memctrl.CmdRFM:
			err = dev.RFM(bank, c.at)
		}
		if err != nil {
			return 0, fmt.Errorf("device replay of %v at %v: %w", memctrl.CmdKind(c.kind), c.at, err)
		}
	}
	return time.Since(start), nil
}

// mitTimes is the host time a mitigator spent on a recorded call stream.
type mitTimes struct {
	translate, onact, onrfm time.Duration
	acts, rfms              int64
}

// replayMitigator feeds the recorded activations and RFMs to m on a fresh
// device's banks. A clock read costs as much as a call, so activations are
// timed in per-bank batches: each bank's activations are held back until
// that bank's next RFM (or the end), then translated as one batch and
// observed as one batch. Per bank the call order is the recorded one and
// RFMs keep their global order; only the interleaving across banks moves.
func replayMitigator(j *job, m dram.Mitigator, calls []mitCall) (mitTimes, error) {
	var t mitTimes
	dev, err := j.newDevice(nil)
	if err != nil {
		return t, err
	}
	pending := make([][]int, dev.Banks())
	var got [][2]int
	flush := func(bank int) {
		idx := pending[bank]
		if len(idx) == 0 {
			return
		}
		b := dev.Bank(bank)
		got = got[:0]
		t0 := time.Now()
		for _, i := range idx {
			sub, da := m.Translate(b, int(calls[i].row))
			got = append(got, [2]int{sub, da})
		}
		t1 := time.Now()
		for k, i := range idx {
			m.OnACT(b, int(calls[i].row), got[k][0], got[k][1], calls[i].at)
		}
		t.onact += time.Since(t1)
		t.translate += t1.Sub(t0)
		t.acts += int64(len(idx))
		pending[bank] = idx[:0]
	}
	for i, c := range calls {
		if !c.rfm {
			pending[c.bank] = append(pending[c.bank], i)
			continue
		}
		flush(int(c.bank))
		t0 := time.Now()
		m.OnRFM(dev.Bank(int(c.bank)), c.at)
		t.onrfm += time.Since(t0)
		t.rfms++
	}
	for b := range pending {
		flush(b)
	}
	return t, nil
}

// verifyReplay replays the recorded calls to m in their exact order and
// checks every translation against the traced run's, proving the recording
// and a freshly built scheme reproduce what the run computed.
func verifyReplay(j *job, m dram.Mitigator, calls []mitCall) error {
	dev, err := j.newDevice(nil)
	if err != nil {
		return err
	}
	for _, c := range calls {
		b := dev.Bank(int(c.bank))
		if c.rfm {
			m.OnRFM(b, c.at)
			continue
		}
		sub, da := m.Translate(b, int(c.row))
		if sub != int(c.sub) || da != int(c.da) {
			return fmt.Errorf("bank %d row %d translated to (%d, %d), traced run (%d, %d)", c.bank, c.row, sub, da, c.sub, c.da)
		}
		m.OnACT(b, int(c.row), sub, da, c.at)
	}
	return nil
}

// replayHammer applies the recorded translated activations to fresh
// disturbance trackers and returns the host nanoseconds per activation.
func replayHammer(j *job, calls []mitCall) float64 {
	geo := geometry()
	subs := make([]*hammer.Subarray, geo.Banks*geo.SubarraysPerBank)
	for i := range subs {
		subs[i] = hammer.NewSubarray(geo.DARowsPerSubarray(), j.hammer)
	}
	var n int64
	start := time.Now()
	for _, c := range calls {
		if !c.rfm {
			subs[int(c.bank)*geo.SubarraysPerBank+int(c.sub)].Activate(int(c.da))
			n++
		}
	}
	return nsPer(time.Since(start), n)
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func medianTicks(ts []timing.Tick) timing.Tick {
	if len(ts) == 0 {
		return 0
	}
	s := append([]timing.Tick(nil), ts...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

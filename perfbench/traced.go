package main

import (
	"fmt"
	"sync"
	"time"

	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/memctrl"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// The traced run observes the simulator only through its public seams:
// wrappers around trace.Generator, trace.Pattern and dram.Mitigator,
// sim.Config.OnCommand and Progress, an obs.Probe event sink for the attack,
// and the exp fan-out hooks. Every wrapper forwards unchanged, so the traced
// run must reproduce the untraced outputs exactly (checked by the driver).

// cmd is one recorded DRAM command, packed to keep long recordings small.
type cmd struct {
	at   timing.Tick
	row  int32
	bank int16
	kind uint8 // a memctrl.CmdKind
}

// request is one recorded controller enqueue.
type request struct {
	at timing.Tick
	ev trace.Event
}

// mitCall is one recorded mitigator activation (Translate then OnACT, which
// dram.Device always pairs) or RFM.
type mitCall struct {
	at      timing.Tick
	row, da int32
	bank    int16
	sub     int16
	rfm     bool
}

// recording is everything a traced simulation leaves for the replays.
type recording struct {
	cmds []cmd
	reqs []request
	// nextCalls counts Generator.Next per core; patRows are the attack
	// pattern's activations in order.
	nextCalls []int64
	patRows   [][2]int32
	mit       *mitRecorder
	wakeups   int64
	jumps     []timing.Tick

	// The wheel calls Progress with the next wakeup time at the end of every
	// wakeup (ProgressEvery 1), so clock is the simulated time of the wakeup
	// in progress. A core fetches its next event right after enqueueing the
	// previous one, so each Next call dates the pending event's enqueue.
	clock   timing.Tick
	pending []trace.Event
	started []bool
}

type recordingGen struct {
	inner trace.Generator
	core  int
	rec   *recording
}

func (g *recordingGen) Name() string { return g.inner.Name() }

func (g *recordingGen) Next() trace.Event {
	e := g.inner.Next()
	r := g.rec
	r.nextCalls[g.core]++
	if r.started[g.core] {
		r.reqs = append(r.reqs, request{at: r.clock, ev: r.pending[g.core]}) //shadowvet:ignore allocflow -- traced-run recorder: the recording grows by design; untraced repetitions never install it
	}
	r.pending[g.core], r.started[g.core] = e, true
	return e
}

// traceSim attaches the recorders to a trace simulation config.
func traceSim(cfg *sim.Config) *recording {
	n := len(cfg.Workload)
	rec := &recording{nextCalls: make([]int64, n), pending: make([]trace.Event, n), started: make([]bool, n)}
	gens := make([]trace.Generator, n)
	for i, g := range cfg.Workload {
		gens[i] = &recordingGen{inner: g, core: i, rec: rec}
	}
	cfg.Workload = gens
	rec.mit = &mitRecorder{inner: cfg.DeviceMit}
	cfg.DeviceMit = rec.mit
	cfg.ProgressEvery = 1
	cfg.Progress = func(now timing.Tick) {
		rec.wakeups++
		rec.jumps = append(rec.jumps, now-rec.clock)
		rec.clock = now
	}
	inner := cfg.OnCommand
	cfg.OnCommand = func(ch int, c memctrl.Cmd) {
		rec.cmds = append(rec.cmds, cmd{at: c.At, row: int32(c.Row), bank: int16(c.Bank), kind: uint8(c.Kind)})
		inner(ch, c)
	}
	return rec
}

// mitRecorder forwards every dram.Mitigator call and records activations and
// RFMs. It forwards RFMBlame and SetProbe too, so the device, controller and
// probe see exactly the scheme they would see unwrapped.
type mitRecorder struct {
	inner dram.Mitigator
	calls []mitCall
}

func (m *mitRecorder) Name() string { return m.inner.Name() }

func (m *mitRecorder) Translate(b *dram.Bank, paRow int) (int, int) {
	sub, da := m.inner.Translate(b, paRow)
	m.calls = append(m.calls, mitCall{row: int32(paRow), da: int32(da), bank: int16(b.ID()), sub: int16(sub)})
	return sub, da
}

// OnACT completes the activation its Translate opened: dram.Device calls
// the two back to back.
func (m *mitRecorder) OnACT(b *dram.Bank, paRow, sub, da int, now timing.Tick) {
	m.calls[len(m.calls)-1].at = now
	m.inner.OnACT(b, paRow, sub, da, now)
}

func (m *mitRecorder) OnRFM(b *dram.Bank, now timing.Tick) {
	m.calls = append(m.calls, mitCall{at: now, bank: int16(b.ID()), rfm: true})
	m.inner.OnRFM(b, now)
}

func (m *mitRecorder) NextEventAt(now timing.Tick) timing.Tick { return m.inner.NextEventAt(now) }

// RFMBlame forwards span.Attributor, defaulting as dram.NewDevice does.
func (m *mitRecorder) RFMBlame() span.Cause {
	if a, ok := m.inner.(span.Attributor); ok {
		return a.RFMBlame()
	}
	return span.CauseRFM
}

// SetProbe forwards the probe to schemes that take one after construction.
func (m *mitRecorder) SetProbe(p *obs.Probe) {
	if ps, ok := m.inner.(interface{ SetProbe(*obs.Probe) }); ok {
		ps.SetProbe(p)
	}
}

// recordingPattern records the attack's activation targets.
type recordingPattern struct {
	inner trace.Pattern
	rec   *recording
}

func (p *recordingPattern) Name() string { return p.inner.Name() }

func (p *recordingPattern) NextRow() (int, int) {
	bank, row := p.inner.NextRow()
	p.rec.patRows = append(p.rec.patRows, [2]int32{int32(bank), int32(row)})
	return bank, row
}

// cmdSink receives the attack's command events from an obs.Probe: RunAttack
// has no OnCommand hook, and the probe's event tee is its only command seam.
type cmdSink struct {
	rec  *recording
	hash *flight.CmdHash
}

var obsToCmd = map[obs.Kind]memctrl.CmdKind{
	obs.KindACT: memctrl.CmdACT, obs.KindPRE: memctrl.CmdPRE, obs.KindRD: memctrl.CmdRD,
	obs.KindWR: memctrl.CmdWR, obs.KindREF: memctrl.CmdREF, obs.KindRFM: memctrl.CmdRFM,
}

func (s *cmdSink) Record(e obs.Event) {
	k, ok := obsToCmd[e.Kind]
	if !ok {
		return
	}
	s.rec.cmds = append(s.rec.cmds, cmd{at: e.At, row: int32(e.Row), bank: int16(e.Bank), kind: uint8(k)})
	s.hash.Note(int(k), e.Bank, e.Row, e.At)
}

// traceAttack attaches the recorders to an attack run.
func traceAttack(cfg *sim.AttackConfig, pat trace.Pattern) (*recording, trace.Pattern, *flight.CmdHash) {
	rec := &recording{}
	sink := &cmdSink{rec: rec, hash: flight.NewCmdHash()}
	rec.mit = &mitRecorder{inner: cfg.DeviceMit}
	cfg.DeviceMit = rec.mit
	cfg.Probe = obs.NewRecorder(obs.Options{Flight: sink}).NewTrack("hammer-attack")
	return rec, &recordingPattern{inner: pat, rec: rec}, sink.hash
}

// expSpans records fig8's fan-out through the exp hooks: the serial
// baseline phase ends when the sweep announces its points, and each scheme
// point is a span from OnPointStart to OnPointDone on its worker.
type expSpans struct {
	mu      sync.Mutex
	start   time.Time
	planned time.Time
	open    map[string]time.Time
	busy    map[string]time.Duration
	err     error
}

func newExpSpans() *expSpans {
	return &expSpans{open: map[string]time.Time{}, busy: map[string]time.Duration{}}
}

// hooks wraps o's OnPointDone and adds the span hooks; the sweep starts
// when hooks returns.
func (s *expSpans) hooks(o *exp.RunOpts) {
	s.start = time.Now()
	done := o.OnPointDone
	o.OnPointsPlanned = func(int) {
		s.mu.Lock()
		s.planned = time.Now()
		s.mu.Unlock()
	}
	o.OnPointStart = func(worker int, label, _ string, _ uint64) {
		s.mu.Lock()
		s.open[fmt.Sprint(worker, label)] = time.Now()
		s.mu.Unlock()
	}
	o.OnPointDone = func(worker int, label, scheme string, seed, cmdHash uint64, rel float64) {
		s.mu.Lock()
		key := fmt.Sprint(worker, label)
		if t, ok := s.open[key]; ok {
			s.busy[scheme] += time.Since(t)
			delete(s.open, key)
		} else if s.err == nil {
			s.err = fmt.Errorf("point %s done without a start", label)
		}
		s.mu.Unlock()
		done(worker, label, scheme, seed, cmdHash, rel)
	}
}

// metrics turns the spans into exp.* layer metrics; end is when Fig8
// returned.
func (s *expSpans) metrics(end time.Time, m map[string]float64) error {
	if s.err != nil {
		return s.err
	}
	if s.planned.IsZero() {
		return fmt.Errorf("fig8 never announced its points")
	}
	m["exp.baseline_s"] = s.planned.Sub(s.start).Seconds()
	var busy time.Duration
	for _, sc := range fig8Schemes {
		m["exp.point_s."+string(sc)] = s.busy[string(sc)].Seconds()
		busy += s.busy[string(sc)]
	}
	m["exp.fanout_util"] = busy.Seconds() / (fig8Workers * end.Sub(s.planned).Seconds())
	return nil
}

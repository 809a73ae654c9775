package sim

import (
	"fmt"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// AttackConfig describes a Row Hammer attack run: a single attacker thread
// issuing cache-bypassing reads as fast as the protocol allows, one access
// in flight at a time so every access is a row activation (the
// conflict-inducing access pattern real attacks construct).
type AttackConfig struct {
	Params    *timing.Params
	Geometry  dram.Geometry
	Hammer    hammer.Config
	DeviceMit dram.Mitigator
	MCSide    mitigate.MCSide
	// MaxActs stops the attack after this many activations (0 = unlimited).
	MaxActs int64
	// Duration stops the attack at this simulated time (0 = one tREFW).
	Duration timing.Tick
	// StopOnFlip ends the run at the first bit flip.
	StopOnFlip bool
	// Probe, when set, threads shadowscope instrumentation through the
	// controller, device, and mitigation schemes.
	Probe *obs.Probe
}

// AttackResult reports the outcome.
type AttackResult struct {
	Acts      int64
	Flips     int
	FirstFlip timing.Tick // zero if none
	Elapsed   timing.Tick
	MC        memctrl.Stats
	Device    *dram.Device
}

// RunAttack mounts the pattern against a device built from cfg.
func RunAttack(cfg AttackConfig, pat trace.Pattern) (*AttackResult, error) {
	if cfg.Params == nil {
		return nil, fmt.Errorf("sim: Params required")
	}
	if cfg.Geometry.Banks == 0 {
		cfg.Geometry = dram.DefaultGeometry(cfg.Params.Grade == timing.DDR5_4800)
	}
	if err := checkBanks(cfg.Geometry); err != nil {
		return nil, err
	}
	if cfg.Hammer.HCnt == 0 {
		cfg.Hammer = hammer.DefaultConfig()
	}
	if cfg.Duration == 0 {
		cfg.Duration = cfg.Params.REFW
	}
	if cfg.Probe != nil {
		if ps, ok := cfg.DeviceMit.(probeSetter); ok {
			ps.SetProbe(cfg.Probe)
		}
		if ps, ok := cfg.MCSide.(probeSetter); ok {
			ps.SetProbe(cfg.Probe)
		}
	}
	dev, err := dram.NewDevice(dram.Config{
		Geometry:  cfg.Geometry,
		Params:    cfg.Params,
		Hammer:    cfg.Hammer,
		Mitigator: cfg.DeviceMit,
		Probe:     cfg.Probe,
	})
	if err != nil {
		return nil, err
	}

	// The attacker keeps one access in flight, so a single Request object is
	// recycled for the whole run (whole-struct reset per access).
	var reqStore memctrl.Request
	var cur *memctrl.Request
	mc := memctrl.New(dev, memctrl.Options{MCSide: cfg.MCSide, ClosedPage: true, Probe: cfg.Probe})

	res := &AttackResult{Device: dev}
	now := timing.Tick(0)
	// Event-wheel state: ctlNext is the controller's last Step return, a
	// sound lower bound on its next possible action (already folded with its
	// cached bound, so it sees past the post-command bus echo); dirty forces a
	// Step after an enqueue. When the bound proves the controller quiescent
	// at a wakeup (we woke early only to check cur.Done), the Step call is
	// skipped entirely.
	ctlNext := timing.Tick(0)
	dirty := true
	for now < cfg.Duration {
		if cur == nil || cur.Done > 0 {
			if cur != nil && cur.Done > now {
				now = cur.Done
			}
			if cfg.MaxActs > 0 && res.Acts >= cfg.MaxActs {
				break
			}
			if cfg.StopOnFlip && dev.FlipCount() > 0 {
				break
			}
			bank, row := pat.NextRow()
			cur = &reqStore
			*cur = memctrl.Request{Bank: bank, Row: row, Arrive: now}
			if !mc.Enqueue(cur) {
				return nil, fmt.Errorf("sim: attack enqueue failed")
			}
			res.Acts++
			dirty = true
		}
		if dirty || ctlNext <= now {
			ctlNext = mc.Step(now)
			dirty = false
			if ctlNext <= now {
				continue
			}
		}
		next := ctlNext
		if cur != nil && cur.Done > 0 && cur.Done < next {
			next = cur.Done
		}
		if next <= now {
			next = now + cfg.Params.TCK
		}
		now = next
	}
	res.Elapsed = now
	res.Flips = dev.FlipCount()
	res.MC = mc.Stats
	if res.Flips > 0 {
		// The fault model does not timestamp flips; approximate the first
		// flip time by when the run ended if StopOnFlip, else leave elapsed.
		res.FirstFlip = res.Elapsed
	}
	return res, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"shadow/internal/exp"
	"shadow/internal/obs/flight"
	"shadow/internal/sim"
)

// childResult is what one repetition, run in its own process, reports to the
// driver on its standard output.
type childResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// ReadyAt is the wall clock (Unix ns) at which set-up ended; the driver
	// subtracts the instant it started the process to get setup_s.
	ReadyAt       int64         `json:"ready_at_ns"`
	WallS         float64       `json:"wall_s"`
	SimUS         float64       `json:"sim_us"`
	AllocBytes    uint64        `json:"alloc_bytes"`
	SecureRAAIMTS float64       `json:"secure_raaimt_s"`
	Outputs       []pointOutput `json:"outputs"`
	Err           string        `json:"err,omitempty"`
	// Traced runs only: per-layer metrics, and the replay time of the layers
	// below sim (the driver subtracts it from the untraced wall time).
	Layers    map[string]float64 `json:"layers,omitempty"`
	ChildrenS float64            `json:"children_s,omitempty"`
	// CalS is the calibrate time measured in this process right after the
	// phase it times: set-up, or the timed phase when there is one.
	CalS float64 `json:"cal_s"`
}

// childMain runs one repetition, or with setupOnly only its set-up, and
// prints its result. A panic or error is reported in the result; only a
// failure to print it exits non-zero.
func childMain(name string, seed uint64, traced, setupOnly bool) error {
	var res childResult
	if setupOnly {
		res = setupRepetition(name, seed)
	} else {
		res = repetition(name, seed, traced)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// setupRepetition builds the workload and stops where the timed phase would
// begin: a cheap extra sample of setup_s.
func setupRepetition(name string, seed uint64) (res childResult) {
	res = childResult{Workload: name, Seed: seed}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	j, err := setup(name, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.ReadyAt = time.Now().UnixNano()
	res.SecureRAAIMTS = j.secureS
	res.CalS = calibrate(calWorkers(name))
	return res
}

// calWorkers is the number of goroutines that do the workload's simulation
// work, so calibration loads the host the same way.
func calWorkers(name string) int {
	if name == "fig8" {
		return fig8Workers
	}
	return 1
}

func repetition(name string, seed uint64, traced bool) (res childResult) {
	res = childResult{Workload: name, Seed: seed, Traced: traced}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	j, err := setup(name, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.ReadyAt = time.Now().UnixNano()
	res.SecureRAAIMTS = j.secureS

	var (
		rr     runResult
		rec    *recording
		spans  *expSpans
		attack *sim.AttackResult
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	switch {
	case name == "fig8":
		var hooks func(*exp.RunOpts)
		if traced {
			spans = newExpSpans()
			hooks = spans.hooks
		}
		rr, err = runFig8(j, hooks)
	case j.pattern != nil:
		cfg, pat := j.attackConfig(), j.pattern
		var hash *flight.CmdHash
		if traced {
			rec, pat, hash = traceAttack(&cfg, pat)
		}
		rr, attack, err = runAttack(j, cfg, pat)
		if err == nil && hash != nil {
			rr.outputs[0].CmdHash = fmt.Sprintf("%016x", hash.Sum())
		}
	default:
		hash := flight.NewCmdHash()
		cfg := j.simConfig(hash)
		if traced {
			rec = traceSim(&cfg)
		}
		rr, err = runSim(j, cfg, hash)
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	res.CalS = calibrate(calWorkers(name))
	res.WallS = end.Sub(start).Seconds()
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.SimUS = rr.simUS
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if attack != nil {
		if err := attackState(j, attack, &rr.outputs[0]); err != nil {
			rr.outputs[0].Err = err.Error()
		}
	}
	for i := range rr.outputs {
		if err := sanity(j, rr.outputs[i]); err != nil && rr.outputs[i].Err == "" {
			rr.outputs[i].Err = err.Error()
		}
	}
	res.Outputs = rr.outputs
	if !traced {
		return res
	}

	if spans == nil {
		res.Layers, res.ChildrenS, err = layerMetrics(j, rec, rr.outputs[0])
		if err != nil {
			res.Err = err.Error()
		}
		return res
	}
	rj, rec, out, repWall, err := fig8Representative(seed)
	if err == nil {
		res.Layers, res.ChildrenS, err = layerMetrics(rj, rec, out)
	}
	if err == nil {
		err = spans.metrics(end, res.Layers)
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Layers["sim.self_s"] = repWall - res.ChildrenS
	res.ChildrenS = 0
	return res
}

// fig8Representative gives fig8 the layer numbers its hidden points cannot:
// it simulates the sweep's heaviest kind of point (SHADOW on the 4-core
// mix-high) once untraced, for sim's self time, and once traced, for the
// replays. Both must produce the same output.
func fig8Representative(seed uint64) (*job, *recording, pointOutput, float64, error) {
	var outs [2]pointOutput
	var rec *recording
	var j *job
	var wall float64
	for i := range outs {
		var err error
		if j, err = setup("fig8", seed); err != nil {
			return nil, nil, pointOutput{}, 0, err
		}
		hash := flight.NewCmdHash()
		cfg := j.simConfig(hash)
		if i == 1 {
			rec = traceSim(&cfg)
		}
		start := time.Now()
		rr, err := runSim(j, cfg, hash)
		if err != nil {
			return nil, nil, pointOutput{}, 0, err
		}
		if i == 0 {
			wall = time.Since(start).Seconds()
		}
		outs[i] = rr.outputs[0]
	}
	if !match(outs[0], outs[1]) {
		return nil, nil, pointOutput{}, 0, fmt.Errorf("fig8 representative point: traced output differs from untraced")
	}
	return j, rec, outs[1], wall, nil
}

package main

import (
	"strings"
	"testing"
)

// Tracing must observe without changing anything: for every workload, a
// traced repetition reproduces the untraced outputs (command hash, Stats,
// instructions, flips, Rel values, remap state) and its replays succeed.
func TestTracingIsNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	def, err := readBenchmark("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range def.workloadNames() {
		plain := repetition(name, 2, false)
		traced := repetition(name, 2, true)
		for _, r := range []childResult{plain, traced} {
			if r.Err != "" {
				t.Fatalf("%s traced=%v: %s", name, r.Traced, r.Err)
			}
		}
		if len(plain.Outputs) != pointsOf(name) || len(traced.Outputs) != len(plain.Outputs) {
			t.Fatalf("%s: %d untraced and %d traced outputs, want %d", name, len(plain.Outputs), len(traced.Outputs), pointsOf(name))
		}
		for i := range plain.Outputs {
			if !match(plain.Outputs[i], traced.Outputs[i]) {
				t.Errorf("%s: traced output %s differs from untraced %s", name, mustJSON(traced.Outputs[i]), mustJSON(plain.Outputs[i]))
			}
		}
		for _, m := range def.PerLayer {
			if _, ok := traced.Layers[m.Name]; !ok && !driverComputed(m.Name) && !idleLayer(name, m.Name) {
				t.Errorf("%s: traced run lacks %s", name, m.Name)
			}
		}
	}
}

// driverComputed reports the per-layer metrics the driver derives across
// repetitions rather than reading from one.
func driverComputed(metric string) bool {
	switch metric {
	case "security.secure_raaimt_s", "trace_overhead_frac", "ops_failed_frac", "sim.self_s":
		return true
	}
	return false
}

// idleLayer reports the layers a workload does not exercise, which report 0.
func idleLayer(workload, metric string) bool {
	switch {
	case strings.HasPrefix(metric, "exp."):
		return workload != "fig8"
	case strings.HasPrefix(metric, "sim."), strings.HasPrefix(metric, "trace."):
		return workload == "hammer-attack"
	}
	return false
}

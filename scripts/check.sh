#!/usr/bin/env bash
# check.sh — the repository's full verification gate, as run in CI and by
# `make verify`: formatting, go vet, the shadowvet static-analysis suite
# (simulator determinism + DRAM-protocol invariants), the build, and the
# test suite under the race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l cmd internal examples ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

# The -json report and the SARIF log are kept as CI artifacts so a reviewer
# can diff findings across runs (and a forge can render inline annotations)
# without re-running the suite. shadowvet exits non-zero on any finding,
# which aborts the gate via set -e; tee still leaves the report behind for
# inspection. The full-tree pass is also held to a wall-clock budget in a
# non-fatal warning lane below: the suite now builds a module-wide call
# graph (allocflow/detflow), and lint latency creeping past the budget must
# be visible without blocking correctness fixes.
echo "==> shadowvet"
SHADOWVET_BUDGET_SECONDS=${SHADOWVET_BUDGET_SECONDS:-120}
shadowvet_start=$(date +%s)
go run ./cmd/shadowvet -json ./... | tee shadowvet-report.json
go run ./cmd/shadowvet -sarif ./... > shadowvet.sarif
shadowvet_elapsed=$(( $(date +%s) - shadowvet_start ))
echo "shadowvet: full-tree pass (json + sarif) took ${shadowvet_elapsed}s (budget ${SHADOWVET_BUDGET_SECONDS}s)"
if [ "$shadowvet_elapsed" -gt "$SHADOWVET_BUDGET_SECONDS" ]; then
    echo "WARNING: shadowvet wall clock ${shadowvet_elapsed}s exceeds the ${SHADOWVET_BUDGET_SECONDS}s lint budget (non-fatal; profile the analyzers or the call-graph build)" >&2
fi

# The span tracker sits on the memory controller's critical path; gate it
# explicitly so a future package move can't silently drop it from the
# determinism analyzer's restricted set.
echo "==> shadowvet (span tracker)"
go run ./cmd/shadowvet ./internal/obs/span

# The flight recorder is teed into the same hot path (every DRAM command
# passes through Ring.Record); hold it to the same explicit gate.
echo "==> shadowvet (flight recorder)"
go run ./cmd/shadowvet ./internal/obs/flight

# The fleet aggregator renders merged expositions that must be byte-identical
# across renders (determinism) and is fed concurrently from sweep workers,
# the scrape poller, and HTTP handlers (nilguard/sharedflow); gate it by name
# so a package move can't silently drop it from the registries.
echo "==> shadowvet (fleet aggregator)"
go run ./cmd/shadowvet ./internal/obs/fleet

# The fleet collector is the one component whose whole job is cross-goroutine
# merging; its tests run under the race detector on their own lane so a
# synchronization regression there fails loudly and fast.
echo "==> go test -race (fleet collector)"
go test -race ./internal/obs/fleet

# Self-check: the analyzer framework — including the cfg package the
# flow-sensitive analyzers are built on — must pass its own suite. Gated
# by name so a refactor of internal/analysis can't waive itself out.
echo "==> shadowvet (self-check)"
go run ./cmd/shadowvet ./internal/analysis/...

# Static concurrency checking (lockflow/goroleak/sharedflow above) and
# dynamic checking gate together: a fast, focused race lane over the
# packages that actually spawn goroutines (the exp sweep workers, the obs
# inspector serving HTTP during a run) runs before the full race sweep at
# the end, so concurrency regressions fail in seconds, not minutes.
echo "==> go test -race (concurrency-focused lane)"
go test -race ./internal/exp/... ./internal/obs/...

# examples/ is built but (deliberately) excluded from layering: it sits above
# internal/ like cmd/. Gate it explicitly so the demos keep passing the rest
# of the suite — panic messages, command-error handling, lock hygiene.
echo "==> shadowvet (examples)"
go run ./cmd/shadowvet ./examples/...

# The scheduler matrix — {event-cache, full-rescan} x {event-wheel,
# per-tick} — must stay bit-identical to the retained double-oracle
# (full-rescan + per-tick) for every mitigation scheme (Stats, flips, span
# blame, command log). The suite runs inside `go test ./...` too; gating it
# by name keeps the contract visible and the failure mode unambiguous when
# someone touches the readiness cache or a readiness lower bound.
echo "==> scheduler equivalence (2x2 matrix)"
go test -run 'TestSchedulerEquivalence' ./internal/sim/

# perfbench is a nested module (its own go.mod), so no `./...` above reaches
# it. Its unit tests drive the memctrl and sim entry points and check the
# recorded outputs in perfbench/expected.json; gate them by name.
echo "==> perfbench unit tests (nested module)"
(cd perfbench && go test ./...)

echo "==> go test -race"
go test -race ./...

# The telemetry overhead budget is a wall-clock gate; race-detector
# instrumentation multiplies mutex cost, so it self-skips above and is
# enforced here on the uninstrumented build.
echo "==> telemetry overhead budget"
go test -run 'TestTelemetryOverheadBudget' -v . | grep -E 'overhead|PASS|FAIL|ok '

# Perf-trajectory warning lane (non-fatal): one quick pass over the headline
# scheduler benchmarks, compared against the committed BENCH_history.jsonl.
# A >10% ns/op regression prints a warning and keeps the gate green — perf
# noise must not block correctness fixes, but it must be visible. The run
# appends nothing (-history '') so the committed trajectory only grows via
# `make bench`.
if [ -f BENCH_history.jsonl ]; then
    echo "==> bench trajectory (warning lane)"
    go test -bench 'BenchmarkSim/shadow/' -benchtime 1x -benchmem -run '^$' . |
        go run ./cmd/shadowbench -o /dev/null -no-sims -history '' -against BENCH_history.jsonl ||
        echo "WARNING: benchmark regression vs BENCH_history.jsonl (non-fatal; see above)" >&2
fi

echo "OK"

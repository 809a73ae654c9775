#!/usr/bin/env bash
# check.sh — the repository's full verification gate, as run in CI and by
# `make verify`: formatting, go vet, the shadowvet static-analysis suite
# (simulator determinism + DRAM-protocol invariants), the build, the test
# suite under the race detector, and one iteration of every benchmark. The
# race lane also runs FuzzSimulation's seed corpus, which checks determinism
# over the whole simulation: every generated input runs twice and must
# issue the same commands. Nothing here fuzzes; `make fuzz` does, by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
# perfbench is checked here but left out of `make fmt`, which rewrites files:
# only a change to the benchmark itself may edit it.
unformatted=$(gofmt -l cmd internal examples perfbench ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

# One full-tree shadowvet pass. Its JSON report and SARIF log are kept as
# CI artifacts so findings can be diffed across runs (and a forge can render
# inline annotations) without re-running the suite. shadowvet exits
# non-zero on any finding or type error, which aborts the gate via set -e;
# on findings both reports are written first, so they remain for
# inspection. `./...` covers every
# package, internal/analysis itself and examples/ included; the registry
# test in internal/analysis (TestRegistriesNameLivePackages) catches a
# package move that would drop a package from an analyzer's scope.
echo "==> shadowvet"
go run ./cmd/shadowvet -json-out shadowvet-report.json -sarif-out shadowvet.sarif ./...

# perfbench is a nested module (its own go.mod), so the go tool's `./...`
# (go vet, go build, go test) stops at its boundary. shadowvet's own pattern
# expansion does not: the pass above scans perfbench's sources too, which is
# why a shadowvet waiver there must name a live analyzer. Its unit tests
# drive the memctrl and sim entry points and check the recorded outputs in
# perfbench/expected.json; run them from inside the module.
echo "==> perfbench unit tests (nested module)"
(cd perfbench && go test ./...)

# The race sweep covers the packages that spawn goroutines (the exp sweep
# workers, the fleet collector's -inspect handler serving HTTP during a run)
# and the fleet collector those sweep workers call into. It is the repository's
# concurrency check; the goroutine-exit tests in exp run inside it.
echo "==> go test -race"
go test -race ./...

# The telemetry overhead budget is a wall-clock gate; race-detector
# instrumentation multiplies mutex cost, so it self-skips above and is
# enforced here on the uninstrumented build.
echo "==> telemetry overhead budget"
go test -run 'TestTelemetryOverheadBudget' -v . | grep -E 'overhead|PASS|FAIL|ok '

# Every benchmark must still run: one iteration each, fatal on any failure.
# This checks that the benchmarks build and complete, not their timings;
# before/after measurement is `bash perfbench/run.sh --compare`.
echo "==> benchmarks run (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "OK"

# Developer entry points. `make verify` is the full gate every PR must pass.

.PHONY: build test race race-focused vet lint fmt bench verify

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The concurrency-focused race lane: just the packages that spawn
# goroutines (exp sweep workers, the obs inspector). Pairs with the
# static concurrency analyzers (lockflow/goroleak/sharedflow) in `make
# lint` — run both when touching anything concurrent.
race-focused:
	go test -race ./internal/exp/... ./internal/obs/...

vet:
	go vet ./...
	go run ./cmd/shadowvet ./...

# shadowvet alone, for fast iteration on analyzer findings; `make vet` runs
# it behind go vet, `make verify` behind the whole gate.
lint:
	go run ./cmd/shadowvet ./...

fmt:
	gofmt -w cmd internal examples ./*.go

# Three passes over every benchmark as a smoke test, plus a machine-readable
# report ($(BENCH_OUT)): shadowbench echoes the benchmark output through
# and appends headline per-scheme simulation stats with the shadowtap blame
# split. -benchmem feeds allocs/op into the report so the zero-alloc hot
# path is pinned by data, not just by the regression tests. -benchtime 3x keeps the
# single-iteration noise of the heavyweight BenchmarkSim lanes out of the
# trajectory (ns/op is still the per-iteration average). Each run also
# appends one line to BENCH_history.jsonl (git rev + every benchmark), the
# trajectory scripts/check.sh warns against. Set BENCH_BEFORE=<prior
# report.json> to embed before/after comparisons (speedup, alloc reduction)
# against an earlier run. The default report is untracked (.gitignore), so a
# plain `make bench` never overwrites a committed BENCH_*.json. For real
# before/after measurements use the benchmark's own comparison,
# `bash perfbench/run.sh --compare parent.out change.out` (see README
# "Observability & profiling").
BENCH_OUT ?= bench-report.json
bench:
	go test -bench . -benchmem -benchtime 3x -run '^$$' ./... | \
		go run ./cmd/shadowbench -o $(BENCH_OUT) $(if $(BENCH_BEFORE),-before $(BENCH_BEFORE))

verify:
	./scripts/check.sh

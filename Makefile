# Developer entry points. `make verify` is the full gate every PR must pass.

.PHONY: build test race race-focused vet lint fmt bench fuzz verify

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The concurrency-focused race lane: just the packages whose state many
# goroutines share (exp sweep workers, the fleet collector they and the
# -inspect HTTP handlers call). Run it, and `make vet` for go vet's
# lock-copy check, when touching anything concurrent.
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

# Three passes over every benchmark as a smoke test, with allocs/op;
# -benchtime 3x keeps the single-iteration noise of the heavyweight
# BenchmarkSim lanes down (ns/op is still the per-iteration average). For
# before/after measurements use the benchmark's own comparison,
# `bash perfbench/run.sh --compare parent.out change.out` (see README
# "Observability & profiling").
bench:
	go test -bench . -benchmem -benchtime 3x -run '^$$' ./...

# Long fuzzing of the whole simulation, run by hand: `go test` and the gate
# run only FuzzSimulation's seed corpus. New failing inputs land in
# internal/sim/testdata/fuzz/FuzzSimulation.
fuzz:
	go test -run '^$$' -fuzz '^FuzzSimulation$$' -fuzztime 2m ./internal/sim

verify:
	./scripts/check.sh

GO ?= go

.PHONY: all build test test-race test-shuffle vet lint fmt-check bench bench-store bench-wal bench-reshard bench-lsh bench-audit bench-serve crowdbench-smoke sweep clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-shuffle:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is not vendored: when the binary
# is absent (e.g. a hermetic container) the target degrades to vet-only
# with a notice instead of failing; CI installs it on the runner.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Contended sharded-store benchmarks: single-RWMutex baseline vs hash
# shards under 8 mutator goroutines (with and without a live auditor).
bench-store:
	$(GO) test -bench 'StoreContended' -benchmem -run '^$$' .
	$(GO) run ./cmd/benchrunner -storebench

# WAL persistence benchmarks: segmented-log append throughput per fsync
# policy, the group-commit sweep (appender concurrency × sync policy,
# written to BENCH_wal.json), recovery time vs trace length, and warm vs
# cold first-audit latency (with a built-in warm==cold determinism check).
bench-wal:
	$(GO) run ./cmd/benchrunner -walbench -walout BENCH_wal.json

# Epoch-routed store benchmarks: mutation latency during a live shard
# split under concurrent writers, and WAL-shipping replica staleness vs
# write rate with catch-up time once writes stop.
bench-reshard:
	$(GO) run ./cmd/benchrunner -reshardbench

# Candidate-generation benchmarks: exact inverted-index vs MinHash/LSH
# pruning, cold first-audit latency and incremental churn, written to
# BENCH_lsh.json. The 1M-worker point runs LSH only (exact is gated).
bench-lsh:
	$(GO) run ./cmd/benchrunner -lshbench -lshout BENCH_lsh.json

# Parallel audit pipeline benchmarks: cold and delta audit latency over
# population size × dirty fraction × worker-pool width, written to
# BENCH_audit.json. Every pool width replays the same trace and the sweep
# fails if any width's reports diverge from the serial baseline.
bench-audit:
	$(GO) run ./cmd/benchrunner -auditbench -auditout BENCH_audit.json

# Online-serving benchmarks: closed-loop latency over a durable WAL-backed
# server at several concurrencies, a concurrent-vs-serial-oracle audit
# determinism double-run, an overload cell (429 shedding with bounded
# admitted p99), and a binary search for the max SLO-clean open-loop rate,
# written to BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/benchrunner -servebench -serveout BENCH_serve.json

# The repo's one end-to-end benchmark (bench/, its own module, so `go test
# ./...` never reaches it): its unit tests, then every workload at tiny sizes
# with the correctness gates on. Full runs: see bench/README.md.
crowdbench-smoke:
	$(GO) test -C bench ./...
	$(GO) run -C bench repro/bench -smoke

# Quick demonstration of the parallel sweep engine.
sweep:
	$(GO) run ./cmd/benchrunner -sweep all -seeds 1,2 -scales 0.25

clean:
	$(GO) clean ./...

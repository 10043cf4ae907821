GO ?= go

.PHONY: all build test test-race test-shuffle vet lint fmt-check bench experiments crowdbench-smoke clean

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

# Regenerate the committed experiment tables E1–E11 (seed 42). Only the
# wall-clock cells of E7, E8 and E11 change between runs; the golden test
# in internal/experiments compares every other cell. A failed run leaves
# the committed file as it was.
experiments:
	$(GO) run ./cmd/crowdfair experiments > EXPERIMENTS.md.tmp
	mv EXPERIMENTS.md.tmp EXPERIMENTS.md

# The repo's one end-to-end benchmark (bench/, its own module, so `go test
# ./...` never reaches it): its unit tests, then every workload at tiny sizes
# with the correctness gates on. Full runs: see bench/README.md.
crowdbench-smoke:
	$(GO) test -C bench ./...
	$(GO) run -C bench repro/bench -smoke

clean:
	$(GO) clean ./...

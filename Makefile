# Convenience targets; CI runs the same commands (see .github/workflows).

GO ?= go

.PHONY: all build test race chaos bench bench-smoke fmt vet

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout=20m ./...

# chaos runs the fault-injection property suite under the race detector:
# replicated sources with one replica killed/hung/slowed/cut per scenario,
# over a pinned seed matrix (deterministic per seed — a CI failure replays
# here verbatim). The federation and faultinject packages are chaos suites
# in their entirety, so they run unfiltered.
chaos:
	$(GO) test -race -count=1 -timeout=15m ./internal/federation/... ./internal/faultinject/...
	$(GO) test -race -count=1 -timeout=15m -run 'Fault|Flaky|Chaos' ./internal/workload/... ./internal/wire/... ./internal/vtab/...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# bench runs the headline benchmark suites (serve: B-KEY/B-STREAM/B-OPT/
# B-SERVE -> BENCH_serve.json; fault, shard and store likewise — see
# scripts/bench.sh), one merged machine-readable JSON file per suite, and
# fails if any suite produced no records. BENCHTIME=2s make bench   for a
# real measurement run.
bench:
	bash scripts/bench.sh

# bench-smoke is the CI shape: one iteration per benchmark.
bench-smoke:
	BENCHTIME=1x bash scripts/bench.sh

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

# bench runs the end-to-end benchmark (bench/run.sh: one process wires the
# daemons' layers over TCP and checks every answer) once per workload, for
# BENCHMARK.json's 12 seconds, and prints each metric. Compare two commits in
# alternated pairs (EXPERIMENTS.md § The benchmark).
bench:
	for w in serve-mix scan-join merge-fanout ingest-query; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 12 || exit 1; \
	done

# bench-smoke is the CI shape: every workload at toy size through the real
# topology (bench/ is a nested module the root ./... does not reach).
bench-smoke:
	cd bench && $(GO) test ./...

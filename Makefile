# Development targets. `make check` is the default verify flow:
# build + vet + lint + full tests + race pass over the concurrent packages.

GO ?= go

.PHONY: check build vet lint test nn-shards race cover fuzz conformance serve-smoke cluster-smoke online-smoke

check: build vet lint test nn-shards race cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# topil-lint enforces the repo's own invariants: determinism (detrand),
# mutex hygiene (lockcheck), unit annotations (unitcheck), process-exit
# discipline (exitcheck), chaos containment (testkitonly) and
# observability discipline (telemetrycheck). See docs/ANALYSIS.md.
lint:
	$(GO) run ./cmd/topil-lint ./...

test:
	$(GO) test ./...

# The MLP training kernel splits each batch across GOMAXPROCS shards; the
# trained weights must be bit-identical to the per-sample reference at any
# worker count, the way the fig1 -j1/-j8 trace cmp gates the simulator.
nn-shards:
	$(GO) test -count=1 -cpu 1,2,4 -run 'TestTrainMatchesReference' ./internal/nn

# Race pass over every package that runs goroutines: the serving stack, the
# inference substrate it shares models with, the simulation/workload/
# scenario/experiment layers, continual learning, the journal and testkit.
# The experiments package runs with -short so the race detector's ~20x
# slowdown doesn't blow the test timeout on the full oracle+training
# pipeline; its artifact and concurrency tests still run.
race:
	$(GO) test -race ./internal/serve/... ./internal/cluster/... ./internal/npu/... \
		./internal/nn/... ./internal/workload/... ./internal/sim/... ./internal/telemetry/... \
		./internal/conformance/... ./internal/scenario/... ./internal/online/... \
		./internal/journal/... ./internal/testkit/...
	$(GO) test -race -short ./internal/experiments/...

# Coverage gate: statement coverage of the serving, simulation, telemetry
# and testkit packages must not drop below scripts/coverage_baseline.txt.
cover:
	./scripts/coverage_gate.sh

# Short-budget fuzzing pass over every Fuzz* target (Go runs one target per
# invocation). Crashers land in testdata/fuzz/ and replay as plain tests;
# commit them. See docs/TESTING.md.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEngineChaos$$' -fuzztime=10s
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzJobEntries$$' -fuzztime=10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime=10s
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzPackageManifest$$' -fuzztime=10s

# Policy-result regression gate: run the committed conformance packages
# (golden metric envelopes + /v1 schemas, docs/CONFORMANCE.md) offline at
# -j1 and -j8 — the reports must be byte-identical at any worker count.
conformance:
	./scripts/check.sh conformance

# Quick end-to-end: build the service and exercise one infer round trip.
serve-smoke:
	./scripts/check.sh smoke

# Cluster end-to-end: 3 journal-backed replicas behind the router, a
# loadgen burst, one replica SIGKILLed mid-run (zero 5xx allowed), and a
# job-store recovery check. See docs/CLUSTER.md.
cluster-smoke:
	./scripts/check.sh cluster-smoke

# Continual-learning end-to-end: one full DAgger cycle (recorded ->
# labeled -> trained -> shadow-scored -> promoted) through a live serve
# instance with real oracle labeling and a real hot swap. See
# docs/ONLINE.md.
online-smoke:
	./scripts/check.sh online-smoke

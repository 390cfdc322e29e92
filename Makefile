# itpsim build/test/benchmark targets. Everything is plain `go` — the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all build test vet lint staticcheck govulncheck check cover-check fuzz-smoke race-matrix chaos equiv sample-equiv bench bench-figures bench-baseline bench-compare bench-check results quick-results clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# itpvet: the repo's own analysis suite (internal/lint). Runs both drive
# paths so neither rots: the standalone loader and the `go vet -vettool`
# unitchecker protocol. The standalone pass prints per-analyzer wall time
# and fails over LINT_BUDGET, so the interprocedural passes (call graph,
# fact propagation) cannot silently bloat `make check`; CI pins the same
# budget.
LINT_BUDGET ?= 120s

lint:
	$(GO) build -o bin/itpvet ./cmd/itpvet
	./bin/itpvet -timing -budget $(LINT_BUDGET) ./...
	$(GO) vet -vettool=$(CURDIR)/bin/itpvet ./...

# Pinned third-party analyzer versions; CI installs these exact versions.
# Locally the targets are no-ops when the tool is not on PATH (this repo
# builds offline), so `make check` works in a network-less sandbox.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not on PATH; skipping (CI pins $(STATICCHECK_VERSION))" ; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck not on PATH; skipping (CI pins $(GOVULNCHECK_VERSION))" ; \
	fi

# Full gate: vet + itpvet + optional third-party analyzers + the whole
# suite under the race detector. The race suite includes the chaos,
# equiv, and sample-equiv batteries at CI scale; their dedicated
# targets below rerun them at full scale.
check: lint staticcheck govulncheck
	$(GO) vet ./...
	$(GO) test -race ./...

# Per-package coverage floors (scripts/coverage_floors.tsv).
cover-check:
	sh scripts/check_coverage.sh

# Race-detector matrix over the concurrent surface the machineown/
# goroutinelife/lockscope analyzers guard statically: sharded runs, the
# sampling pre-pass, the supervisor, the decode-ahead ring, the metrics
# window sampler, and the run planner with its /debug/vars live view.
# -count=2 reruns each test so per-run state (pools, rings, checkpoints)
# is exercised twice under the detector.
race-matrix:
	$(GO) test -race -count=2 ./internal/shard ./internal/sample ./internal/harness ./internal/workload ./internal/metrics ./internal/run

# Short fuzz pass over the parsers that read untrusted bytes — the trace
# decoder and the checkpoint-journal recovery path — plus the stream
# split/clone equivalence property that sharding rests on, and the TLB
# and cache recency stacks against naive LRU/iTP/xPTP reference models
# (CI smoke).
fuzz-smoke:
	$(GO) test -run FuzzReader -fuzz FuzzReader -fuzztime 10s ./internal/trace
	$(GO) test -run FuzzCheckpointReader -fuzz FuzzCheckpointReader -fuzztime 10s ./internal/harness
	$(GO) test -run FuzzSplitEquivalence -fuzz FuzzSplitEquivalence -fuzztime 10s ./internal/workload
	$(GO) test -run FuzzRecencyReference -fuzz FuzzRecencyReference -fuzztime 10s ./internal/core

# Fault-injection battery: every chaos fault class driven through the real
# simulator and supervision stack under the race detector. Each scenario
# must recover with the fault-free beacon chain or fail with a structured
# error naming the injected fault.
chaos:
	$(GO) test -race -count=1 -run TestBattery ./internal/chaos

# Differential-equivalence battery at the issue's full scale: 8-shard
# 2M-instruction runs across all four policy quadrants, checked against
# the serial reference within the declared bounds (DESIGN.md §12), plus
# the beacon-chain-exact 1-shard degenerate case — all under the race
# detector.
equiv:
	ITPSIM_EQUIV_SCALE=full $(GO) test -race -count=1 -run 'TestDifferentialEquivalence|TestOneShardExact' ./internal/shard

# Sampled-run equivalence battery at full scale: 8-phase 2M-instruction
# sampled runs with functional warmup across all four policy quadrants,
# checked against the serial reference within the declared error bounds
# (DESIGN.md §14), plus the zero-skip K=1 degenerate case which must be
# beacon-chain-exact — all under the race detector.
sample-equiv:
	ITPSIM_SAMPLE_SCALE=full $(GO) test -race -count=1 -run 'TestSampledEquivalence|TestOnePhaseExact' ./internal/sample

# Benchmark baseline file: BENCH_<date>.json unless overridden.
BENCH_BASELINE ?= BENCH_$(shell date +%Y%m%d).json

# Microbenchmarks + ablations + one pass of every figure bench; the
# parsed results are recorded as a dated JSON baseline via benchguard.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x . | $(GO) run ./cmd/benchguard -record $(BENCH_BASELINE)

# Stable micro-benchmarks only, for regression comparison (3 iterations
# to damp timer noise), plus the steady-state hot-loop benches whose
# allocs/op feed benchguard's allocation gate (many iterations: each op is
# a single simulated instruction). SerialRun/ShardedRun/SampledRun feed the
# parallel-speedup metric gates; the speedup metrics are reported only on
# hosts with enough cores.
bench-baseline:
	{ $(GO) test -bench 'SimulatorThroughput|CacheAccess|STLBLookup|WorkloadGeneration|SerialRun|ShardedRun|SampledRun|MultiCoreRun' -benchmem -benchtime 3x -run '^$$' . ; \
	  $(GO) test -bench 'SteadyState' -benchmem -benchtime 20000x -run '^$$' ./internal/sim ; } \
		| $(GO) run ./cmd/benchguard -record $(BENCH_BASELINE)

# The checked-in dated baseline, and bench-compare's default OLD. CI's
# cache-miss fallback compares against it; TestBenchBaselinesCommitted
# fails if a baseline named here or in CI is missing from the tree.
BENCH_CHECKED_IN ?= BENCH_20260806.json

# Fail on >10% ns/op or allocs/op growth between two baselines, or on any
# steady-state benchmark that is no longer allocation-free:
#   make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json
# Override THRESHOLD when the baselines come from different hosts (CI's
# cache-miss fallback compares against the checked-in dated baseline,
# where only the alloc/metric gates are host-independent).
THRESHOLD ?= 0.10
OLD ?= $(BENCH_CHECKED_IN)
bench-compare:
	$(GO) run ./cmd/benchguard -compare $(OLD),$(NEW) -threshold $(THRESHOLD) -alloc-gate '^BenchmarkSteadyState'

# Single-baseline gates only (zero-alloc steady state, instrumentation
# overhead) — what CI runs when no previous baseline is cached:
#   make bench-check NEW=BENCH_a.json
bench-check:
	$(GO) run ./cmd/benchguard -check $(NEW) -alloc-gate '^BenchmarkSteadyState'

bench-figures:
	$(GO) test -bench 'Fig' -benchtime 1x .

# Regenerate every paper figure at full default scale (minutes).
results:
	$(GO) run ./cmd/itpbench -fig all | tee results_full.txt

# Smoke-scale pass over every figure (~a minute).
quick-results:
	$(GO) run ./cmd/itpbench -fig all -scale quick

clean:
	$(GO) clean ./...

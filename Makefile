GO ?= go

# Recipes run under bash with pipefail so a failing `go test` is never
# masked by a downstream pipe stage (tee/grep in the bench targets).
SHELL := bash
.SHELLFLAGS := -o pipefail -ec

# Extra flags for the klocalvet lint run, e.g.
# `make lint KLOCALVET_FLAGS=-github` in CI for inline PR annotations,
# or KLOCALVET_FLAGS=-json for tooling.
KLOCALVET_FLAGS ?=

# Pinned staticcheck release for reproducible lint runs (the last line
# supporting go 1.22). CI installs exactly this version; locally the
# lint target uses whatever staticcheck is on PATH and skips it with a
# notice when none is installed.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: tier1 check race build test vet lint klocalvet staticcheck bench bench-scale bench-gate bench-check serve-smoke fuzz-smoke go-fuzz-smoke cluster-smoke scale-smoke churn-smoke

tier1: vet build test bench-check serve-smoke fuzz-smoke cluster-smoke scale-smoke churn-smoke

# The full local gate: everything CI runs except the benchmarks.
check: lint tier1 race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Model-contract lint: go vet, the klocalvet suite (k-locality,
# determinism, statelessness, concurrency hygiene — see
# internal/analysis and DESIGN.md "Model contracts as lint"), and
# staticcheck when available.
lint: vet klocalvet staticcheck

klocalvet:
	$(GO) run ./cmd/klocalvet $(KLOCALVET_FLAGS) ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# klbench, the BENCHMARK.json benchmark, is a nested module compiled
# against internal/prep, nbhd, engine, serve and cluster. Vet it and run
# its toy-size suite (every workload, traced and untraced, plus the
# reply checker's negative cases) so an internal API change that breaks
# the benchmark fails here rather than in a later benchmark run.
bench-check:
	$(GO) -C klbench vet ./...
	$(GO) -C klbench test ./...

# Boot klocald on a loopback port and exercise the whole endpoint
# surface (route, batch, hot-swap, metrics, pprof) in-process — no curl
# or fixed port needed, so it runs anywhere `go run` does.
serve-smoke:
	$(GO) run ./cmd/klocald -smoke -algo alg2,alg3 -graph random -size 40 -seed 3

# A 30-second randomized campaign of the differential fuzzer over every
# algorithm and property (delivery, dilation, walk validity,
# determinism, relabelling, engine/netsim differential, cluster
# differential); klocalcheck exits non-zero on any finding and prints
# the minimized reproducer.
fuzz-smoke:
	$(GO) run ./cmd/klocalcheck -budget 30s -props all -seed 1

# The million-node pipeline scaled to CI time: stream a 10^5-node grid
# into a binary .csr file, serve it store-backed (mmap) through klocald,
# and route 1000 Zipf pairs through /batch.
scale-smoke:
	$(GO) run ./cmd/klocald -scale-smoke

# Boot a 3-member cluster on loopback TCP, route cross-shard through
# every member, kill one mid-traffic, check typed fast failure plus
# tombstone route-around, then rejoin it under a fresh incarnation and
# check full recovery — the crash/recovery story end to end in-process.
cluster-smoke:
	$(GO) run ./cmd/klocald -cluster-smoke

# PATCH a stream of chord flaps into a live klocald while routing
# traffic through it: epochs must advance, dirty sets must stay k-local
# (≪ n), no request may fail mid-swap, and the final topology must
# route exactly like a from-scratch snapshot of a client-side mirror.
churn-smoke:
	$(GO) run ./cmd/klocald -churn-smoke

# The Go-native fuzzing engine over the same scenario space, long enough
# to exercise the decoder and mutator plumbing, then over PATCH /graph
# delta batches (typed errors only, results equal to a rebuild). `go
# test -fuzz` takes one target per invocation. -fuzzminimizetime
# caps how long the fuzzer shrinks each new interesting input: one
# FuzzRouting exec costs about 12 ms, so uncapped minimization stalls
# the budget at 0 execs/sec. A crasher is still reported, and
# klocalcheck's shrinker still minimizes findings.
go-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRouting -fuzztime 20s -fuzzminimizetime 20x ./internal/fuzz
	$(GO) test -run '^$$' -fuzz FuzzApplyAll -fuzztime 20s -fuzzminimizetime 20x ./internal/churn

# The concurrency-heavy code paths: the fault-tolerant discovery
# protocol and injector, the traffic engine and its metric shards, the
# lock-free preprocessing cache, the routing daemon's hot-swap/drain
# machinery, the cluster membership/LSA/forwarding stack (including the
# 5-member TCP crash e2e), the graph substrate and neighborhood
# extraction (shared-Scratch misuse shows up here first), and the shared
# routing closures the engine's workers route through. Three races that
# need many interleavings to show run ten times over: routing while a
# cluster member derives new epochs, eight goroutines publishing a
# view's routing half at once, and lookups on the last three epochs of
# a view cache publishing into the table pages they share while new
# epochs are derived.
race:
	$(GO) test -race -count=1 \
		./internal/netsim/... ./internal/fault/... \
		./internal/engine/... ./internal/metrics/... ./internal/prep/... \
		./internal/serve/... ./internal/cluster/... ./internal/bigraph/... \
		./internal/nbhd/... ./internal/graph/...
	$(GO) test -race -count=1 -run Concurrent ./internal/route/...
	$(GO) test -race -count=10 \
		-run '^(TestConcurrentRouteWhileDeriving|TestConcurrentRoutingHalfFirstUse|TestConcurrentAtAcrossEpochs)$$' \
		./internal/cluster/ ./internal/prep/
	$(MAKE) go-fuzz-smoke

# Traffic-engine benchmarks (throughput vs workers, cache cold vs warm,
# workload shapes); the JSON event stream lands in BENCH_engine.json.
# The `grep || true` only forgives grep finding no matching lines; a
# go test failure still fails the target through pipefail.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem -count=1 -json . \
		| tee BENCH_engine.json | { grep -o '"Output":".*msgs/sec.*"' || true; }

# Throughput regression gate: re-runs the single-worker engine
# benchmark and fails when msgs/sec regresses >10% below the committed
# BENCH_engine.json baseline or allocations per routed message exceed
# the gate (see cmd/benchgate). Single-worker only, so the gate holds on
# any core count.
bench-gate:
	$(GO) run ./cmd/benchgate -baseline BENCH_engine.json

# Million-node scale benchmarks over the CSR store (n = 10^4 … 10^6 grid
# under a Zipf workload): routing throughput and store footprint; the
# JSON event stream lands in BENCH_scale.json.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScale' -benchmem -count=1 -timeout 30m -json . \
		| tee BENCH_scale.json | { grep -o '"Output":".*\(msgs/sec\|bytes/vertex\).*"' || true; }

GO ?= go

.PHONY: all build test test-short test-race bench embed-bench sim-bench vet fmt check lint experiments examples cover fault-sweep fuzz audit-smoke serve phase-bench dist-bench loc

all: vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Formatting, vet, build and tests, plus the benchmark module (xbench/),
# which ./... skips but which compiles against the server and engine.
check:
	gofmt -l .
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd xbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

vet:
	gofmt -l . && $(GO) vet ./...

# Static analysis beyond vet.  staticcheck is used when installed
# (go install honnef.co/go/tools/cmd/staticcheck@latest); the target
# still runs vet-level checks without it instead of failing.
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran gofmt+vet only"; \
	fi

fmt:
	gofmt -w .

# Regenerate the EXPERIMENTS.md tables (stdout).
experiments:
	$(GO) run ./cmd/xtree-bench -exp all -maxr 9 -seeds 5

# E16 only: slowdown degradation under message drops and link kills.
fault-sweep:
	$(GO) run ./cmd/xtree-bench -exp e16

# Short fuzz of the netsim fault layer (determinism + counter invariants),
# the embedder (a guest of Capacity(r) nodes, r ≤ 4, held to Theorems 1–3),
# the cache-snapshot parser, its record bodies (core.ReadResult), the
# tree encoding that /v1/embed, /v1/simulate and snapshot codes carry
# (bintree.Decode, held to the recursive parser it replaced), the stream
# event encoder (output must equal encoding/json's), the session hub's
# page store (held to a plain slice of lines), and the HTTP API's raw
# /v1/embed and /v1/simulate bodies (no 5xx but 503/504, every 200 within
# its theorem's bounds).
fuzz:
	$(GO) test -run Fuzz -fuzz=FuzzNetsimFaults -fuzztime=10s ./internal/netsim
	$(GO) test -run Fuzz -fuzz=FuzzEmbed -fuzztime=10s ./internal/core
	$(GO) test -run Fuzz -fuzz=FuzzWarm -fuzztime=10s ./internal/engine
	$(GO) test -run Fuzz -fuzz=FuzzReadResult -fuzztime=10s ./internal/core
	$(GO) test -run Fuzz -fuzz=FuzzDecode -fuzztime=10s ./internal/bintree
	$(GO) test -run Fuzz -fuzz=FuzzEventNDJSON -fuzztime=10s ./internal/telemetry
	$(GO) test -run Fuzz -fuzz=FuzzHub -fuzztime=10s ./internal/telemetry
	$(GO) test -run Fuzz -fuzz=FuzzAPI -fuzztime=10s ./internal/server

# E1 + the simulator experiments with the LinkAudit invariant checker
# attached to every run: any model violation aborts with a violation list.
# E22 runs the sharded X-tree path, every shard routing in closed form,
# with the audit observing the merged event stream of all shards; it
# writes no BENCH_dist.json here.
audit-smoke:
	$(GO) run ./cmd/xtree-bench -exp e1 -maxr 4 -seeds 2 -audit
	$(GO) run ./cmd/xtree-bench -exp e10 -maxr 4 -audit
	$(GO) run ./cmd/xtree-bench -exp e17 -maxr 4 -audit
	$(GO) run ./cmd/xtree-bench -exp e22 -audit -dist-out ''

# Run the embedding service on :8080 (Ctrl-C for a graceful drain).
serve:
	$(GO) run ./cmd/xtree-serve -addr :8080

# E22 only: partition-scaling sweep of the distributed simulator with a
# LinkAudit attached as an observer; writes BENCH_dist.json.
dist-bench:
	$(GO) run ./cmd/xtree-bench -exp e22 -audit

# E19 only: traced phase breakdown (separator vs host-build vs simulate).
phase-bench:
	$(GO) run ./cmd/xtree-bench -exp e19

# E20 + the perf gate (also the CI perf job): the exact AllocsPerRun
# budgets on the default-option embed of a random and a path guest, the
# cache-hit path's allocation gates (tree decode, CanonicalCode of a
# decoded and a relabelled tree at n=4080, the engine's hit, the X-tree
# wire metrics a cache entry measures and the hypercube pass, and a hit's
# X-tree and hypercube answers, which must allocate nothing beyond the
# engine's remap), the universal host's byte budget (universal.Place at
# n=4080, which must not build G_n), the path-scaling gate (a path's
# embed time per node at X(11) over X(8), at most 1.5), then the E20
# sweep diffed against the committed BENCH_embed.json — any
# configuration more than 10% over its baseline allocs/op fails.
# Refresh the baseline by running `go run ./cmd/xtree-bench -exp e20`
# and committing the file.
embed-bench:
	$(GO) test -run TestEmbedAllocBudget -v ./internal/core
	$(GO) test -run 'TestDecodeAllocs|TestCanonicalCodeAllocs|TestCacheHitAllocs|TestXTreeWireMetricsAllocs|TestHitAnswerAllocs|TestPlaceAllocBytes' -v ./internal/bintree ./internal/engine ./internal/core ./internal/server ./internal/universal
	$(GO) test -run '^$$' -bench PathScaling -benchtime 1x ./internal/core
	$(GO) run ./cmd/xtree-bench -exp e20 -embed-out '' -embed-baseline BENCH_embed.json

# The simulator's perf gate (also the CI perf job): exact AllocsPerRun
# budgets on the X-tree reference run (random n=2032 on X(6), two waves),
# the same run at 8 shards, and the ideal-tree baseline at n=1008, and the
# allocation budget of one streamed session (exchange on a random n=2032
# guest through the recorder, the hub and the writer loop); run with -v,
# they log their counts.  Then the run benchmarks and the recorder's
# per-event cost with -benchmem.
sim-bench:
	$(GO) test -run 'TestRunAllocBudget|TestIdealBaselineAllocBudget|TestPartitionedRunAllocBudget|TestStreamedSessionAllocBudget' -v ./internal/netsim ./internal/distsim ./internal/server
	$(GO) test -run '^$$' -bench 'RunXTree|IdealBaseline' -benchmem ./internal/netsim
	$(GO) test -run '^$$' -bench 'RecorderEvent' -benchmem ./internal/telemetry

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/batch
	$(GO) run ./examples/simulate
	$(GO) run ./examples/faults
	$(GO) run ./examples/observe
	$(GO) run ./examples/universal
	$(GO) run ./examples/hypercube
	$(GO) run ./examples/separators
	$(GO) run ./examples/serve

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# Lines of Go, non-test and test, outside the benchmark module (xbench/)
# and the benchmark's build cache: the net LOC a change reports.
LOC_GO = find . \( -path ./xbench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go'
loc:
	@echo "non-test Go lines: $$($(LOC_GO) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "test Go lines:     $$($(LOC_GO) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"

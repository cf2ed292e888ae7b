GO ?= go

# staticcheck is pinned so lint results are reproducible; bump deliberately.
STATICCHECK_VERSION ?= 2025.1

# How long make fuzz runs each fuzz target.
FUZZTIME ?= 30s

.PHONY: build vet fmt lint test test-purego cross race fuzz bench bench-pprof telemetry-smoke trace-smoke doccheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l names the files it would rewrite; any name is a failure.
fmt:
	@out="$$(gofmt -l cmd internal examples benchmarks *.go)"; \
	test -z "$$out" || { echo "fmt: gofmt would rewrite:"; echo "$$out"; exit 1; }

# Fetching the pinned staticcheck needs the module proxy; offline boxes
# (this repo carries no vendored deps) degrade to a warning so make ci
# stays runnable anywhere, while CI — which has network — lints for real.
lint:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... ; \
	else \
		echo "lint: staticcheck@$(STATICCHECK_VERSION) unavailable (no module proxy access?); skipping"; \
	fi

test:
	$(GO) test ./...

# The other two builds of internal/tensor's elementwise kernels (DESIGN.md
# §15). purego runs the generic Go loops where the default amd64 build runs
# the AVX2 assembly: that TestGoldenTrainTrajectory passes under both is the
# end-to-end proof the two paths agree bit for bit. cross checks that the
# generic files are all a non-amd64 build needs; it compiles and vets only, so
# it needs no arm64 machine (and no network).
test-purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/model

cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/nn

# The simulator runs parallel by default; the race detector is part of
# tier-1 verification for the concurrent paths (engine ticks, experiment
# harness fan-out, chunked matmul).
# The experiments package runs several full co-simulations; under the race
# detector that exceeds go test's default 10-minute per-package budget
# (measured at PR 21 on a 2-core box, three runs: 7 m 53 s – 8 m 45 s for
# the package, 13 m 15 s / 11 m 48 s / 11 m 37 s for the whole target, the
# slowest with a cold race build cache; the timeout is the slowest + 25 %.
# PR 23, same box, warm cache: 7 m 49 s – 8 m 56 s, 11 m 27 s / 11 m 05 s /
# 11 m 39 s — no new co-simulation, timeout unchanged).
# Tests that only need "a default LbChat run" share goldenRun's memoised
# ones.
race:
	$(GO) test -race -timeout 17m ./...

# Native fuzz targets, FUZZTIME each; go test fuzzes one target per run. A
# crasher lands in the package's testdata/fuzz/<target>/, which is committed:
# plain go test replays every input there as a regression test.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLBTCDecode$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/model

# go test -bench is the development tool; the perf gate is benchmarks/perf
# (bash benchmarks/run.sh -pair / -compare, see benchmarks/README.md), whose
# ledger re-times every kernel these micro-benchmarks cover. The root
# package's BenchmarkExperiment/<name> regenerates one catalogue entry
# (lbchat-bench -exp <name>) and reports its table cells as metrics.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# CPU profiles of the fleet tick's pair listing (one internal/core run
# of BenchmarkScanContacts — the skin list's filter, a Rebuild + Pairs on
# the ticks it is due, and the merge with the open-contact list — and
# BenchmarkCandidatePairs — the same listing with telemetry off, then the
# free-mask filter — on a moving 1024- and
# 4096-vehicle fleet), of the fleet's set-up (BenchmarkNewEngine: one
# shared initialization cloned into 1024 and 4096 vehicles), of the world
# in traffic (the fixed-work BenchmarkWorldTick/paper: a fresh 6 + 50 + 250 world stepped 2000 times
# per op, so two profiles cover the same work) and of the train step (internal/model's BenchmarkTrainStep on
# bench-shaped sparse batches, 5000 steps whatever the box's speed), for
# flame-graph inspection and CI artifacts. Profiles land in bench-profiles/
# next to their test binaries (go test needs -o when profiling, so the
# binary is kept alongside).
bench-pprof:
	mkdir -p bench-profiles
	$(GO) test -run '^$$' -bench 'BenchmarkWorldTick/paper' -benchtime 10x -benchmem \
		-cpuprofile bench-profiles/world.cpu.pprof -o bench-profiles/world.test ./internal/world/
	$(GO) test -run '^$$' -bench 'BenchmarkScanContacts|BenchmarkCandidatePairs' -benchmem \
		-cpuprofile bench-profiles/scan.cpu.pprof -o bench-profiles/core.test ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkNewEngine' -benchmem \
		-cpuprofile bench-profiles/setup.cpu.pprof -o bench-profiles/core.test ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkTrainStep' -benchtime 5000x -benchmem \
		-cpuprofile bench-profiles/train.cpu.pprof -o bench-profiles/train.test ./internal/model/

# End-to-end check of the telemetry pipeline: a tiny sim writes its event
# stream as JSONL plus its aggregated summary CSV, and telemetry-lint fails
# unless the stream is non-empty, every line decodes against the event
# schema, and every summary row names a canonical metric.
telemetry-smoke:
	$(eval TMPDIR_SMOKE := $(shell mktemp -d))
	$(GO) run ./cmd/lbchat-sim -scale test -vehicles 4 -duration 120 \
		-telemetry-out $(TMPDIR_SMOKE)/events.jsonl \
		-summary-out $(TMPDIR_SMOKE)/summary.csv > /dev/null
	$(GO) run ./cmd/telemetry-lint -summary $(TMPDIR_SMOKE)/summary.csv \
		$(TMPDIR_SMOKE)/events.jsonl
	rm -rf $(TMPDIR_SMOKE)

# End-to-end check of the two trace paths a CLI can reach, under the race
# detector: one recorded LBTC trace drives the same co-simulation from the
# file (-trace-file: resident at this size) and paged through the bounded
# sliding window over HTTP from cmd/trace-serve on a loopback port
# (-trace-url). The two telemetry event streams must be byte-identical —
# windowing and remote paging change where chunks come from, never what the
# engine computes; chunk traffic flows through a side channel — and the
# remote run's summary CSV must lint clean against the canonical metric
# registry, which covers the trace.chunk_* fetch-pipeline counters only a
# windowed run emits. (A windowed local file is TestStreamABDeterminism's.)
trace-smoke:
	$(eval TMPDIR_TRACE := $(shell mktemp -d))
	$(GO) build -o $(TMPDIR_TRACE)/trace-serve ./cmd/trace-serve
	$(GO) build -race -o $(TMPDIR_TRACE)/lbchat-sim ./cmd/lbchat-sim
	$(GO) run ./cmd/worldgen -vehicles 4 -trace 240 \
		-trace-out $(TMPDIR_TRACE)/trace.lbtc > /dev/null
	$(TMPDIR_TRACE)/lbchat-sim -scale test -duration 120 \
		-trace-file $(TMPDIR_TRACE)/trace.lbtc \
		-telemetry-out $(TMPDIR_TRACE)/resident.jsonl > /dev/null
	set -e; \
	$(TMPDIR_TRACE)/trace-serve -file $(TMPDIR_TRACE)/trace.lbtc \
		-addr 127.0.0.1:0 -addr-file $(TMPDIR_TRACE)/addr & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 100); do [ -s $(TMPDIR_TRACE)/addr ] && break; sleep 0.1; done; \
	[ -s $(TMPDIR_TRACE)/addr ] || { echo "trace-serve never published its address"; exit 1; }; \
	$(TMPDIR_TRACE)/lbchat-sim -scale test -duration 120 \
		-trace-url http://$$(cat $(TMPDIR_TRACE)/addr) \
		-telemetry-out $(TMPDIR_TRACE)/remote.jsonl \
		-summary-out $(TMPDIR_TRACE)/summary.csv > /dev/null
	cmp $(TMPDIR_TRACE)/resident.jsonl $(TMPDIR_TRACE)/remote.jsonl
	$(GO) run ./cmd/telemetry-lint -summary $(TMPDIR_TRACE)/summary.csv \
		$(TMPDIR_TRACE)/remote.jsonl
	rm -rf $(TMPDIR_TRACE)

# Every internal package must carry its godoc in a dedicated doc.go opening
# with the canonical "// Package <name>" sentence.
doccheck:
	@fail=0; for d in internal/*/; do \
		pkg=$$(basename $$d); \
		if [ ! -f "$$d/doc.go" ]; then \
			echo "doccheck: $$d is missing doc.go"; fail=1; \
		elif ! grep -q "^// Package $$pkg " "$$d/doc.go"; then \
			echo "doccheck: $$d/doc.go lacks a '// Package $$pkg' comment"; fail=1; \
		fi; \
	done; exit $$fail

ci: build vet fmt doccheck lint test test-purego cross race fuzz telemetry-smoke trace-smoke

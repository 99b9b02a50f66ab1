GO ?= go

.PHONY: all build test race lint fuzz bench-smoke bench-json pprof pprof-refresh serve-demo ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the full module: every engine runs concurrent tasks over
# shared buffers and stores — and internal/serve adds concurrent
# readers against in-flight refreshes — so nothing is exempt.
race:
	$(GO) test -race ./...

# Lint is three in-repo stdlib-only tools plus staticcheck:
#   - doclint (internal/tools/doclint) requires a doc comment on every
#     exported declaration — the whole public surface stays
#     godoc-complete.
#   - i2vet (internal/tools/vet) enforces repo invariants: atomic
#     commit sequences, centralized counter names, sorted map emission,
#     checked Close/Flush/Sync, par.Do fan-out. Its summary line
#     ("i2vet: atomicwrite=0 ...") prints per-analyzer counts; it is
#     BLOCKING here and in CI. Exemptions need a justified
#     //i2vet:allow directive (see DESIGN.md "Enforced invariants").
#   - staticcheck is ADVISORY locally (runs only when installed, so
#     `make lint` needs nothing beyond the Go toolchain) and BLOCKING
#     in CI, where its own job always installs it.
lint:
	$(GO) vet ./...
	$(GO) run ./internal/tools/doclint . ./cmd/* ./internal/* ./internal/tools/doclint ./internal/tools/vet
	$(GO) run ./internal/tools/vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fuzz the decode boundaries that accept bytes from disk: the block
# segment format, the ingest staging log, and the kv text codec. Each
# target gets FUZZTIME of coverage-guided input generation (the go tool
# runs one -fuzz pattern per invocation). Seeds are valid encodes plus
# byte-flipped variants, mirroring the deterministic corruption-sweep
# tests; CI runs this as the fuzz-smoke job.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBlockFile$$' -fuzztime $(FUZZTIME) ./internal/blockio
	$(GO) test -run '^$$' -fuzz '^FuzzWALLine$$' -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzEscapeField$$' -fuzztime $(FUZZTIME) ./internal/kv
	$(GO) test -run '^$$' -fuzz '^FuzzTextDelta$$' -fuzztime $(FUZZTIME) ./internal/kv

# One iteration of every benchmark so the bench harness cannot rot,
# plus (via bench-json) the sweep tables and the BENCH_core.json
# artifact exactly as CI's bench-smoke job produces them.
bench-smoke: bench-json
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Machine-readable benchmark records at CI's artifact paths, so the
# perf trajectory is reproducible locally: the engine sweeps in
# BENCH_core.json, the parallel durability-plane checkpoint sweep in
# BENCH_ckpt.json, the serving-layer QPS/p99 sweep in BENCH_serve.json,
# the streaming-ingestion freshness-lag sweep in BENCH_ingest.json, the
# segment block-format storage sweep in BENCH_results.json, and the
# refresh-planner no-regret sweep in BENCH_plan.json.
bench-json:
	$(GO) run ./cmd/i2mr-bench -scale small -shuffle-mem 65536 -json BENCH_core.json onestep core
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_ckpt.json ckpt
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_serve.json serve
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_ingest.json ingest
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_results.json results
	$(GO) run ./cmd/i2mr-bench -scale small -shuffle-mem 65536 -json BENCH_plan.json plan

# CPU + heap + contention profiles of the storage/serving hot path (the
# results point-read benchmarks), for digging into a regression the
# sweeps surface: `make pprof` then `go tool pprof cpu.prof`. The mutex
# and block profiles show lock contention and blocking waits on the
# parallel durability plane (striped edge locks, scheduler queue).
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkStoreGet' -benchtime 2s \
		-cpuprofile cpu.prof -memprofile mem.prof \
		-mutexprofile mutex.prof -blockprofile block.prof ./internal/results/
	@echo "profiles written: cpu.prof mem.prof mutex.prof block.prof (go tool pprof cpu.prof)"

# CPU + heap profiles of the incremental refresh loop (selective Map
# through the structure span index, MRBG merge, reduce, checkpoint):
# BenchmarkIncrementalRefresh, an incremental PageRank refresh per op.
# The test binary and profiles go to PROFDIR, outside the repository:
# `make pprof-refresh` then `go tool pprof -top $PROFDIR/cpu.prof`.
PROFDIR ?= $(or $(TMPDIR),/tmp)/i2mr-pprof-refresh

pprof-refresh:
	mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench '^BenchmarkIncrementalRefresh$$' -benchtime 20x \
		-o $(PROFDIR)/core.test -outputdir $(PROFDIR) \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/core/
	@echo "profiles written: $(PROFDIR)/cpu.prof $(PROFDIR)/mem.prof (go tool pprof -top $(PROFDIR)/cpu.prof)"

# Run the online serving demo: wordcount over a generated corpus,
# HTTP on :8080, a background delta refresh every 5s. Try
#   curl 'http://localhost:8080/get?key=w0042'
# while it runs; /stats shows epoch flips and cache counters.
serve-demo:
	$(GO) run ./cmd/i2mr-serve -addr :8080 -n 4000 -refresh-every 5s

# Everything CI runs, in the same order.
ci: build lint test race fuzz bench-smoke

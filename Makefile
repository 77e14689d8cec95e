GO ?= go

.PHONY: build test check fmt vet lint lint-fast race bench bench-compare bench-legacy bench-step bench-comms bench-obs bench-kernels bench-scale bench-serve scale-demo chaos soak-async obslint dash-demo

# Formatting checks skip testdata: it holds deliberately corrupt analyzer
# fixtures that gofmt cannot parse.
FMT_FILES = find . -name '*.go' -not -path '*/testdata/*'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$($(FMT_FILES) | xargs gofmt -l); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: the full eight-analyzer suite (see
# DESIGN.md §8, §13). Non-zero exit on any diagnostic; -timing shows where
# the lint wall time goes.
lint:
	$(GO) run ./cmd/fedomdvet -timing ./...

# The same suite, sharded per-analyzer across background jobs via -only. The
# binary is built once (go run would race eight compiles of the same main);
# each shard pays the type-checking cost, so this wins on multi-core machines
# where the slowest analyzer, not the sum, bounds wall time.
lint-fast:
	@bin=$$(mktemp -d)/fedomdvet; trap 'rm -rf $$(dirname $$bin)' EXIT; \
	$(GO) build -o $$bin ./cmd/fedomdvet || exit 2; \
	fail=0; pids=""; names=""; \
	for a in $$($$bin -list | awk '{print $$1}'); do \
		$$bin -only $$a ./... & pids="$$pids $$!"; names="$$names $$a"; \
	done; \
	i=0; for pid in $$pids; do \
		i=$$((i+1)); name=$$(echo $$names | cut -d' ' -f$$i); \
		if ! wait $$pid; then echo "FAIL $$name"; fail=1; fi; \
	done; \
	exit $$fail

race:
	$(GO) test -race -count=1 ./...

# Fault-injection suite: the chaos wrappers' unit tests, the transport
# retry-through-severed-links test, and the end-to-end crash soak, all under
# the race detector (the failure paths are where the concurrency lives).
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/fed/

# The async robustness soak in isolation: heavy-tail stragglers, transient
# faults, and NaN poisoning against both aggregation topologies, gated at
# ≥3× sync's rounds/sec and ≤0.02 accuracy drift from the fault-free run.
soak-async:
	$(GO) test -race -count=1 -run 'TestSoakAsync' -v ./internal/chaos/

# The gate a PR must pass: formatting, go vet, fedomdvet, and the full test
# suite under the race detector (-count=1 so a cached pass can't mask a
# race). CI-friendly: every stage runs even if an earlier one fails, each
# reports its own status, and the target exits non-zero if any stage failed.
# Each stage reports its own wall time so a slow gate is visible at a glance.
check:
	@fail=0; t0=$$(date +%s); \
	out=$$($(FMT_FILES) | xargs gofmt -l); t1=$$(date +%s); if [ -n "$$out" ]; then \
		echo "FAIL gofmt ($$((t1-t0))s) — run gofmt -w on:"; echo "$$out"; fail=1; \
	else echo "ok   gofmt ($$((t1-t0))s)"; fi; \
	t0=$$(date +%s); if $(GO) vet ./...; then t1=$$(date +%s); echo "ok   go vet ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL go vet ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) run ./cmd/fedomdvet -timing ./...; then t1=$$(date +%s); echo "ok   fedomdvet ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL fedomdvet ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) test -race -count=1 ./...; then t1=$$(date +%s); echo "ok   go test -race ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL go test -race ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) run ./cmd/obslint; then t1=$$(date +%s); echo "ok   obslint ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL obslint ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) run ./cmd/benchkernels -smoke >/dev/null; then t1=$$(date +%s); echo "ok   benchkernels -smoke ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL benchkernels -smoke ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) run ./cmd/benchserve -smoke >/dev/null; then t1=$$(date +%s); echo "ok   benchserve -smoke ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL benchserve -smoke ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) run ./cmd/bench -smoke >/dev/null; then t1=$$(date +%s); echo "ok   bench -smoke ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL bench -smoke ($$((t1-t0))s)"; fail=1; fi; \
	exit $$fail

# Exposition lint in isolation: run a short chaos-injected round trip and
# validate the resulting Prometheus text exposition.
obslint:
	$(GO) run ./cmd/obslint

# Serve the live run dashboard on a longer seeded run for eyeballing:
# http://localhost:8600/ (SSE round feed) and /metrics on the same mux.
dash-demo:
	$(GO) run ./cmd/fedomd -divisor 8 -rounds 20 -policy drop-round \
		-chaos -chaos-seed 11 -chaos-nan-rate 0.1 -chaos-latency 30ms \
		-dash-addr localhost:8600

# The repository's one benchmark (BENCHMARK.json, cmd/bench/README.md): six
# workloads untraced then traced, every metric printed by name, correctness
# checks on; the full result lands beside the benchmark's build outputs.
bench:
	@mkdir -p .bench_build
	$(GO) run ./cmd/bench -out .bench_build/results.json

# Judge one `cmd/bench -out` result against another, per (metric, workload):
#   make bench-compare A=parent.json B=change.json
bench-compare:
	$(GO) run ./cmd/bench -compare $(A) $(B)

# The per-main artefacts that predate cmd/bench.
bench-legacy:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/benchstep -out BENCH_step_allocs.json
	$(GO) run ./cmd/benchcomms -out BENCH_comms.json
	$(GO) run ./cmd/benchobs -out BENCH_obs.json
	$(GO) run ./cmd/benchkernels -out BENCH_kernels.json -min-speedup 2
	$(GO) run ./cmd/benchscale -out BENCH_scale.json
	$(GO) run ./cmd/benchserve -out BENCH_serve.json -min-speedup 5

# Regenerate only the pooled-vs-unpooled training-step artefact.
bench-step:
	$(GO) run ./cmd/benchstep -out BENCH_step_allocs.json

# Regenerate the per-codec communication artefact: bytes on the wire,
# compression ratios, codec CPU cost, and accuracy drift per tier.
bench-comms:
	$(GO) run ./cmd/benchcomms -out BENCH_comms.json

# Regenerate the observability-overhead artefact: per-round cost with the
# tracing plane armed vs disabled, gated at ≤2% overhead when enabled.
bench-obs:
	$(GO) run ./cmd/benchobs -out BENCH_obs.json

# Regenerate the compute-kernel artefact: dense matmul GFLOP/s (seed ikj vs
# cache-blocked SIMD) across sizes and worker counts, SpMM scaling, and
# streamed-generation / Louvain throughput. Gated at ≥2× over the seed
# kernel on the 512–2048 sizes.
bench-kernels:
	$(GO) run ./cmd/benchkernels -out BENCH_kernels.json -min-speedup 2

# Regenerate the round-topology scaling artefact: rounds/sec and p50/p99
# round latency over party count × straggler rate, barriered sync vs
# buffered async, on synthetic sleep-calibrated parties.
bench-scale:
	$(GO) run ./cmd/benchscale -out BENCH_scale.json

# Regenerate the serving-plane artefact: closed-loop qps and p50/p99 request
# latency for the micro-batched inference service, unbatched vs coalesced vs
# coalesced+LRU, plus the hot-swap soak (zero dropped requests). Gated at
# ≥5× unbatched qps at equal-or-better p99.
bench-serve:
	$(GO) run ./cmd/benchserve -out BENCH_serve.json -min-speedup 5

# The pinned million-node pipeline: stream a 10⁶-node SBM, Louvain-partition
# it into 8 parties, train one full FedOMD round, report stage times and
# peak RSS. No O(N²) state anywhere on this path.
scale-demo:
	$(GO) run ./cmd/scaledemo

GO ?= go

.PHONY: build test check fmt vet lint race fuzz bench bench-compare parity handover scale-demo chaos soak-async

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

# Project-specific static analysis: the full seven-analyzer suite (see
# DESIGN.md §8, §13). Non-zero exit on any diagnostic; -timing shows where
# the lint wall time goes.
lint:
	$(GO) run ./cmd/fedomdvet -timing ./...

# The fan-out tests run again at one and four workers, so the per-party
# phase code is raced at more than one worker count.
RACE_FANOUT = $(GO) test -race -count=1 -cpu 1,4 -run 'FanOut|Overlap|LeavesNoWorker' ./internal/fed

race:
	$(GO) test -race -count=1 ./...
	$(RACE_FANOUT)

# Fault-injection suite: the chaos wrappers' unit tests, the transport
# retry-through-severed-links test, and the end-to-end crash soak, all under
# the race detector (the failure paths are where the concurrency lives).
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/fed/

# Native fuzzing of the wire decoder (codec.FuzzDecodeParams) for FUZZTIME on
# two workers. Tier-1 go test runs only its seed corpus; a failing input is
# written under internal/codec/testdata/fuzz/, where go test replays it.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeParams$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/codec/

# The async robustness soak in isolation: heavy-tail stragglers, transient
# faults, and NaN poisoning against both aggregation topologies, gated at
# a third of the straggler chains' ratio over sync's rounds/sec and ≤0.02
# accuracy drift from the fault-free run.
soak-async:
	$(GO) test -race -count=1 -run 'TestSoakAsync' -v ./internal/chaos/

# The gate a PR must pass: formatting, go vet, fedomdvet, the full test
# suite under the race detector (-count=1 so a cached pass can't mask a
# race) plus the fan-out tests at two worker counts, a FUZZTIME-bounded run of the decoder fuzz target and the benchmark
# smoke run, then the hand-over check. CI-friendly: every stage runs even if
# an earlier one fails, each reports its own status and wall time, and the
# target exits non-zero if any stage failed. The hand-over check runs after
# the stages pass, once their processes are gone.
check:
	@fail=0; t0=$$(date +%s); \
	out=$$($(FMT_FILES) | xargs gofmt -l); t1=$$(date +%s); if [ -n "$$out" ]; then \
		echo "FAIL gofmt ($$((t1-t0))s) — run gofmt -w on:"; echo "$$out"; fail=1; \
	else echo "ok   gofmt ($$((t1-t0))s)"; fi; \
	t0=$$(date +%s); if $(GO) vet ./...; then t1=$$(date +%s); echo "ok   go vet ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL go vet ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) run ./cmd/fedomdvet -timing ./...; then t1=$$(date +%s); echo "ok   fedomdvet ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL fedomdvet ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(GO) test -race -count=1 ./... && $(RACE_FANOUT); then t1=$$(date +%s); echo "ok   go test -race ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL go test -race ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if $(MAKE) --no-print-directory fuzz >/dev/null; then t1=$$(date +%s); echo "ok   fuzz ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL fuzz ($$((t1-t0))s)"; fail=1; fi; \
	t0=$$(date +%s); if bash cmd/bench/run.sh -smoke >/dev/null; then t1=$$(date +%s); echo "ok   bench -smoke ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL bench -smoke ($$((t1-t0))s)"; fail=1; fi; \
	exit $$fail
	@t0=$$(date +%s); if $(MAKE) --no-print-directory handover; then t1=$$(date +%s); echo "ok   handover ($$((t1-t0))s)"; \
	else t1=$$(date +%s); echo "FAIL handover ($$((t1-t0))s)"; exit 1; fi

# Hand-over check: fail if a process from building, vetting, testing,
# benchmarking or running this repository is still alive, including a
# <pkg>.test binary orphaned by a killed go test. Prints nothing when none is.
# Each alternative brackets one character so the pattern cannot match the
# shell that runs pgrep, and the processes this check runs under (make, the
# shell that called it) are skipped, so a caller whose own command line
# names go test or the benchmark does not list itself.
handover:
	@self=" "; p=$$$$; while [ "$${p:-0}" -gt 1 ]; do self="$$self$$p "; \
		p=$$(ps -o ppid= -p "$$p" | tr -d ' '); done; \
	out=$$(pgrep -af '[f]edomd|[b]ench|[g]o (run|test|build|vet)|[.]test( |$$)' | while read -r pid cmd; do \
		case "$$self" in *" $$pid "*) ;; *) echo "$$pid $$cmd" ;; esac; done); \
	if [ -n "$$out" ]; then echo "processes still running:"; echo "$$out"; exit 1; fi

# The repository's one benchmark (BENCHMARK.json, cmd/bench/README.md): six
# workloads untraced then traced, every metric printed by name, correctness
# checks on; the full result lands beside the benchmark's build outputs.
# Every bench target goes through run.sh, the contract's own command, so the
# benchmark is built one way only.
bench:
	bash cmd/bench/run.sh -out .bench_build/results.json

# Judge one `cmd/bench -out` result against another, per (metric, workload):
#   make bench-compare A=parent.json B=change.json
bench-compare:
	bash cmd/bench/run.sh -compare $(A) $(B)

# Output parity against another commit, in the foreground:
#   make parity BASE=<rev>      (default HEAD)
# exports BASE with git archive into .bench_build/parity/ (no worktree),
# builds cmd/fedomd there and from this tree, runs every model at seeds 1-3
# (Cora ÷8, 40 rounds, no early stopping) on both, and diffs each pair of
# outputs. The export is removed on every exit path; the outputs stay in
# .bench_build/parity-out/ for inspection. Exits non-zero on any difference.
BASE ?= HEAD
parity:
	@set -e; src=.bench_build/parity; out=.bench_build/parity-out; \
	trap 'rm -rf "$$src"' EXIT; trap 'exit 130' INT TERM; \
	rm -rf "$$src" "$$out"; mkdir -p "$$src" "$$out/base" "$$out/change"; \
	git archive "$(BASE)" | tar -x -C "$$src"; \
	(cd "$$src" && $(GO) build -o ../parity-out/fedomd-base ./cmd/fedomd); \
	$(GO) build -o "$$out/fedomd-change" ./cmd/fedomd; \
	models=$$("$$out/fedomd-change" -list | sed -n 's/^models: *\[\(.*\)\]$$/\1/p'); \
	fail=0; for m in $$models; do for seed in 1 2 3; do \
		for side in base change; do \
			"$$out/fedomd-$$side" -dataset cora -divisor 8 -rounds 40 -patience 0 \
				-model "$$m" -seed $$seed > "$$out/$$side/$$m-$$seed.txt"; \
		done; \
		if diff -u "$$out/base/$$m-$$seed.txt" "$$out/change/$$m-$$seed.txt"; then \
			echo "same  $$m seed $$seed"; else echo "DIFF  $$m seed $$seed"; fail=1; fi; \
	done; done; \
	exit $$fail

# The pinned million-node pipeline: stream a 10⁶-node SBM, Louvain-partition
# it into 8 parties, train one full FedOMD round, report stage times and
# peak RSS. No O(N²) state anywhere on this path.
scale-demo:
	$(GO) run ./cmd/scaledemo

# Artifact-style entry points (mirrors the paper artifact's bash/slurm
# scripts; see the Appendix of the paper and EXPERIMENTS.md).

GO ?= go

.PHONY: all build test check fuzz-smoke bench bench-json diff explain figures \
        fig6 fig7 fig8 fig9 fig10 fig11 table1 overhead examples serve clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full verification: build, vet, the test suite under the race detector
# (the sweep scheduler, the snapshot fan-out and the service's worker
# pool are concurrent; the internal/serve tests are where the service's
# HTTP contract is pinned), vet and tests of the perfbench module (its
# own module, which ./... skips, so a change to an API it calls fails
# here rather than when the benchmark is built), and the manifest
# round-trip smoke test (bench-json encodes every manifest with built-in
# decode/re-encode verification).
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-json

# Native fuzz targets, each for a short fixed budget: the sparse table
# decoder, the cache-level restore, the traceparent parser and the
# assembler. A new interesting input is minimized for at most 1 s, so
# the budget goes to fuzzing; a crasher lands in the package's
# testdata/fuzz and fails the target.
fuzz-smoke:
	$(GO) test ./internal/snap -run '^$$' -fuzz '^FuzzReaderSparse$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheRestore$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/tracing -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 10s -fuzzminimizetime 1s

# Reduced-scale benchmark suite: one bench per table/figure + ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark artifact: a reduced-scale fig6+fig7 sweep
# writes per-run JSON manifests (Manifest.Encode verifies each one
# round-trips through encoding/json) and the aggregate index becomes
# BENCH_pr25.json — the headline numbers a perf trajectory can diff.
# Committed BENCH_pr*.json baselines from earlier PRs are never rewritten.
bench-json:
	rm -rf manifests
	$(GO) run ./cmd/sccbench -experiment fig6,fig7 \
	    -workloads xalancbmk,mcf,lbm -max-uops 30000 -json manifests > /dev/null
	cp manifests/index.json BENCH_pr25.json

# Regression gate: regenerate the reduced-scale sweep and diff it against
# the committed PR-2 baseline with direction-aware thresholds (sccdiff
# exits nonzero on an IPC/coverage drop or an energy rise). When the gate
# trips, a second sccdiff pass renders the -explain markdown attribution
# (CPI-stack delta, shifted transforms, divergence window) into
# $GITHUB_STEP_SUMMARY so the CI job page explains the failure, then the
# target still exits 1. The committed baseline is index-only (no manifest
# files), so explanations there degrade to per-entry notes — the gate
# verdict itself never depends on them.
diff: bench-json
	$(GO) run ./cmd/sccdiff BENCH_pr2.json manifests || \
	  { $(GO) run ./cmd/sccdiff -explain -format markdown \
	      BENCH_pr2.json manifests >> $${GITHUB_STEP_SUMMARY:-/dev/null}; exit 1; }

# Regression attribution: explain every matched pair between two manifest
# directories (index.json + per-run manifests, as written by
# `sccbench -json DIR`). Override the endpoints to compare arbitrary
# sweeps, e.g. `make explain EXPLAIN_BASE=sweepA EXPLAIN_CUR=sweepB`.
EXPLAIN_BASE ?= BENCH_pr2.json
EXPLAIN_CUR  ?= manifests
explain:
	$(GO) run ./cmd/sccdiff -explain-all $(EXPLAIN_BASE) $(EXPLAIN_CUR)

# Full-scale regeneration of every table and figure (a few minutes).
figures:
	$(GO) run ./cmd/sccbench -experiment all | tee bench_results.txt

fig6 fig7 fig8 fig9 fig10 fig11 table1 overhead:
	$(GO) run ./cmd/sccbench -experiment $@

# Run the HTTP simulation service with a local result cache.
serve:
	$(GO) run ./cmd/sccserve -cache manifests

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/deadcode
	$(GO) run ./examples/adaptivity
	$(GO) run ./examples/oscillation
	$(GO) run ./examples/customworkload

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

# Artifact-style entry points (mirrors the paper artifact's bash/slurm
# scripts; see the Appendix of the paper and EXPERIMENTS.md).

GO ?= go

.PHONY: all build test check bench bench-json diff explain figures fig6 fig7 \
        fig8 fig9 fig10 fig11 table1 overhead examples serve serve-smoke \
        telemetry-race trace-race snapshot-race loadgen clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full verification: build, vet, the test suite under the race detector
# (the sweep scheduler is concurrent), and the manifest round-trip smoke
# test (bench-json encodes every manifest with built-in decode/re-encode
# verification).
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) snapshot-race
	$(MAKE) bench-json

# Reduced-scale benchmark suite: one bench per table/figure + ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark artifact: a reduced-scale fig6+fig7 sweep
# writes per-run JSON manifests (Manifest.Encode verifies each one
# round-trips through encoding/json) and the aggregate index becomes
# BENCH_pr14.json — the headline numbers a perf trajectory can diff.
# Committed BENCH_pr*.json baselines from earlier PRs are never rewritten.
bench-json:
	rm -rf manifests
	$(GO) run ./cmd/sccbench -experiment fig6,fig7 \
	    -workloads xalancbmk,mcf,lbm -max-uops 30000 -json manifests > /dev/null
	cp manifests/index.json BENCH_pr14.json

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

# Service smoke gate: brings sccserve up on a random port, submits a
# reduced-workload job twice (the repeat must be a cache hit with a
# byte-identical manifest), checks /healthz, scrapes /metrics.prom twice
# — the job counters must show the run and its cache hit — and validates
# the Prometheus exposition (line syntax, TYPE/HELP coverage, counters
# monotonic across the scrapes),
# checks the /debug/flight ring, verifies the tracing contract
# (traceparent echo, well-formed span tree, exemplar→trace link,
# byte-stable normalized exports), and drains cleanly. Wired into CI
# after make check.
serve-smoke:
	$(GO) run ./cmd/sccserve -smoke

# Telemetry-focused race gate: the metrics registry, the serve tier's
# instrument rings, and the stats helpers under the race detector
# (make check runs -race repo-wide; this is the quick targeted slice).
telemetry-race:
	$(GO) test -race ./internal/telemetry ./internal/serve ./internal/stats

# Tracing-focused race gate: the span subsystem plus the two tiers that
# start spans concurrently (the serve worker pool and the harness sweep
# scheduler) under the race detector.
trace-race:
	$(GO) test -race ./internal/tracing ./internal/harness ./internal/serve

# Snapshot determinism gate: the checkpoint/restore byte-identity
# contracts — restored machines continuing bit-exactly, the
# snapshot-restored SimPoint estimator matching the serial detailed
# estimator, and store self-healing — explicitly, under the race
# detector (the fan-out is concurrent). make check runs -race repo-wide; this names the gate so a
# snapshot regression fails with a pointed target.
snapshot-race:
	$(GO) test -race -run 'TestSnapshot' ./internal/pipeline ./internal/harness
	$(GO) test -race ./internal/snap

# Service-level determinism SLO: hammer an in-process sccserve with
# concurrent mixed-config requests and assert every manifest is
# byte-identical to a locally computed one.
loadgen:
	$(GO) run ./cmd/sccbench -experiment loadgen

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/deadcode
	$(GO) run ./examples/adaptivity
	$(GO) run ./examples/oscillation
	$(GO) run ./examples/customworkload

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

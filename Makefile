GO ?= go

.PHONY: build test vet lint lint-sarif race bench bench-smoke bench-kernel bench-obs bench-sta bench-throughput bench-diff check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Run the repository's own static-analysis suite (cmd/postopc-lint):
# determinism (detrand, maporder), unit safety (unitsafe), worker-pool
# correctness (parcapture), dead-assignment hygiene (deadassign),
# cache-key completeness (cachekey, keycover), allocation budgets
# (allocbudget), write-only telemetry (obswrite) and suppression hygiene
# (nolint). -timing prints per-analyzer wall-clock to stderr.
lint:
	$(GO) build -o bin/postopc-lint ./cmd/postopc-lint
	./bin/postopc-lint -timing ./...

# The machine-readable variant of the lint gate: same findings, rendered
# as SARIF 2.1.0 on stdout (byte-identical at any worker count).
lint-sarif:
	$(GO) build -o bin/postopc-lint ./cmd/postopc-lint
	./bin/postopc-lint -json ./... > postopc-lint.sarif

test:
	$(GO) test ./...

# Explicit timeout: the flow suite alone runs ~9-10 min under the
# detector, right at go test's 600s per-binary default. The second line
# repeats the timing library and STA suites (well under a second each
# without the detector) to shake out races on the per-cell input
# capacitances that every Eval of a cell shares.
race:
	$(GO) test -race -timeout 1800s ./...
	$(GO) test -race -count=10 ./internal/timinglib/ ./internal/sta/

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# One-iteration smoke of the cache ablation in -short mode: keeps the
# stage/cache plumbing honest between perf PRs without the full bench cost
# (the -short path runs a small repeated-context block only).
bench-smoke:
	$(GO) test -short -run=NONE -bench=Ablation_WindowCache -benchtime=1x .

# Kernel-engine smoke: asserts the steady-state allocation budget of the
# imaging hot path (TestKernelAllocBudget), runs the kernel report bench
# once (-short trims its sample count), then the vek inner-loop micro
# series (complex128 reference vs SoA kernels — butterfly, filter apply,
# intensity accumulate, inverse scale — and the blur's row and column tap
# sums against their Go loops). On an AVX2 host the kernels run the AVX2
# path; add -tags purego to measure the Go reference loops. Reference
# numbers: BENCH_kernel.json.
bench-kernel:
	$(GO) test -short -run=TestKernelAllocBudget -bench=KernelReport -benchtime=1x ./internal/litho/
	$(GO) test -run=NONE -bench=KernelInnerLoops -benchtime=100ms ./internal/dsp/vek/

# Telemetry-overhead smoke: asserts that a disabled sink adds zero
# allocations to instrumented hot paths and measures the per-update cost
# once. Reference numbers: BENCH_obs.json.
bench-obs:
	$(GO) test -run='TestDisabledSinkZeroAlloc|TestEnabledCounterZeroAlloc' -bench=ObsOverhead -benchtime=1x -benchmem ./internal/obs/

# Multi-corner STA smoke: one iteration of the process-window sign-off
# bench on the -short datapath block (full vs incremental re-analysis,
# single corner and whole grid, and 200 Monte Carlo samples serial and
# parallel). Reference numbers: BENCH_sta.json.
bench-sta:
	$(GO) test -short -run=NONE -bench=MultiCornerSTA -benchtime=1x .

# The full pre-merge gate: compile everything, vet, run the domain lint
# suite, run the tests, then run them again under the race detector (the
# parallel extraction / ORC / Monte Carlo paths are exercised concurrently
# by the flow tests).
check: build vet lint test race

# Window-path throughput smoke: one iteration of the windows/sec/core
# bench on the -short repeated-context strip (batch sizes 1 and 16, cache
# off and on). Reference numbers: BENCH_throughput.json.
bench-throughput:
	$(GO) test -short -run=NONE -bench=Throughput_Batch -benchtime=1x .

# Run-ledger regression gate: two small instrumented postopc-sta runs of
# the same command write ledgers; postopc-report summarizes the second
# and diffs it against the first (generous 400% threshold, 0.1 ms noise
# floor — this is a smoke against pathological cliffs, not a
# microbenchmark). Non-zero exit on any regression.
bench-diff:
	$(GO) build -o bin/postopc-sta ./cmd/postopc-sta
	$(GO) build -o bin/postopc-report ./cmd/postopc-report
	./bin/postopc-sta -design rca -size 4 -fast -cache -j 2 -batch 3 -ledger bench-base.ledger > /dev/null
	./bin/postopc-sta -design rca -size 4 -fast -cache -j 2 -batch 3 -ledger bench-cur.ledger > /dev/null
	./bin/postopc-report summary bench-cur.ledger
	./bin/postopc-report diff -threshold 400 -min-ns 100000 bench-base.ledger bench-cur.ledger

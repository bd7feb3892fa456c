GO ?= go

# PR names the BENCH_$(PR).json snapshot: bench-guard compares against it,
# bench-snapshot writes it. It defaults to the numerically newest checked-in
# snapshot; record a new one with `make bench-snapshot PR=<n>`.
PR ?= $(shell printf '%s\n' $(patsubst BENCH_%.json,%,$(wildcard BENCH_*.json)) | sort -n | tail -1)

# MONITOR_ALLOC_BUDGET is the allocs/op ceiling for the steady-state
# monitoring round benchmark (BenchmarkMonitorRound runs at the default
# parallelism, so worker-pool goroutine spawns dominate; the tighter ≤2
# sequential budget is enforced by TestMonitorOnceAllocationBudget).
MONITOR_ALLOC_BUDGET ?= 64

# CALIB_ALLOC_BUDGET is the allocs/op ceiling for a warm cold-enrollment
# (BenchmarkCalibrate re-calibrates a standing link on the arena path; the
# per-capture ≤4 budget is enforced by TestCalibrateAllocationBudget).
CALIB_ALLOC_BUDGET ?= 64

# REFLECT_ALLOC_BUDGET and MEASURE_ALLOC_BUDGET are the allocs/op ceilings
# for the line-response synthesis alone (ReflectInto on a reused scratch
# allocates nothing) and for one allocating Measure (the detached IIP,
# its samples and the Saturated copy).
REFLECT_ALLOC_BUDGET ?= 0
MEASURE_ALLOC_BUDGET ?= 3

# ENVELOPE_WRITE_ALLOC_BUDGET and ENVELOPE_PARSE_ALLOC_BUDGET are the
# allocs/op ceilings for the attest envelope codec on a 256-verdict federated
# answer (BenchmarkEnvelope): one WriteData (Marshal, the indent buffer,
# headers) and one ParseBody (almost all of it the verdicts' strings).
ENVELOPE_WRITE_ALLOC_BUDGET ?= 7
ENVELOPE_PARSE_ALLOC_BUDGET ?= 793

# BENCH_MAX_REGRESS is the percentage any guarded benchmark's ns/B/allocs
# may grow over the recorded BENCH_$(PR).json snapshot before bench-guard
# fails. Generous because shared CI runners show up to ~1.6× wall-clock
# scatter between runs (measured on the reference box); B/op and allocs/op
# are noise-free, so allocation growth is the signal this mostly exists
# for — a genuine 2× time regression still trips it.
BENCH_MAX_REGRESS ?= 100

.PHONY: all build test race bench bench-guard bench-experiments bench-snapshot fuzz-short vet \
	quality-guard quality-baseline experiments

all: build test

## build: compile every package and the divotbench CLI
build:
	$(GO) build ./...

## test: the tier-1 gate — build everything and run the full test suite
test: build
	$(GO) test ./...

## race: run the internal suites (core, exper, itdr, ...), the daemon /
## scheduler paths, and the client SDK under the race detector
race:
	$(GO) test -race ./internal/... ./cmd/... ./client/...

## bench: run every benchmark once (experiment tables + hot-path micros);
## -short keeps the 1000-bus fleet sweep and the big federation rows out of
## the smoke pass
bench:
	$(GO) test -short . ./internal/daemon ./cmd/divotherd -run XXX -bench . -benchtime 1x -benchmem

## bench-guard: fail if a hot path leaks allocation back in or regresses
## past the recorded snapshot — benchsnap -max-allocs checks the monitoring
## round, warm re-calibration, line-response synthesis, one IIP
## measurement and the attest envelope codec (write and parse) against their
## budgets, and -compare diffs them against BENCH_$(PR).json with a
## $(BENCH_MAX_REGRESS)% ceiling (rows the snapshot lacks are reported as new)
bench-guard:
	$(GO) test . -run XXX -bench 'MonitorRound$$|Calibrate$$|ReflectionSynthesis$$|IIPMeasurement$$|Envelope$$' -benchtime 20x -benchmem \
		| $(GO) run ./cmd/benchsnap \
			-max-allocs 'MonitorRound=$(MONITOR_ALLOC_BUDGET)' \
			-max-allocs 'Calibrate=$(CALIB_ALLOC_BUDGET)' \
			-max-allocs 'ReflectionSynthesis=$(REFLECT_ALLOC_BUDGET)' \
			-max-allocs 'IIPMeasurement=$(MEASURE_ALLOC_BUDGET)' \
			-max-allocs 'Envelope/write=$(ENVELOPE_WRITE_ALLOC_BUDGET)' \
			-max-allocs 'Envelope/parse=$(ENVELOPE_PARSE_ALLOC_BUDGET)' \
			-compare BENCH_$(PR).json -max-regress $(BENCH_MAX_REGRESS) > /dev/null

## bench-snapshot: record the hot-path micro-benchmarks plus the full
## federated-attest sweep (1/4/16 daemons × 1k/10k/100k buses — the big rows
## calibrate 100k buses first, so this runs for tens of minutes) as
## machine-readable JSON (BENCH_$(PR).json) for cross-PR diffing
bench-snapshot:
	{ $(GO) test -short . ./internal/daemon -run XXX -bench 'IIPMeasurement|ReflectionSynthesis|Similarity|ErrorFunction|MonitorRound|MonitorAll|ClientRoundTrip|FleetScheduler|Attest$$|FleetHealth|DaemonStartup|Calibrate$$' -benchtime 20x -benchmem ; \
	  $(GO) test ./internal/daemon -run XXX -bench 'FleetColdStart' -benchtime 1x -benchmem -timeout 30m ; \
	  $(GO) test ./internal/daemon -run XXX -bench 'EventFanout' -benchmem ; \
	  $(GO) test ./cmd/divotherd -run XXX -bench 'FederatedAttest' -benchtime 1x -benchmem -timeout 90m ; } \
		| $(GO) run ./cmd/benchsnap > BENCH_$(PR).json

# EventFanout runs on the default time-based benchtime, not 20x: its
# cores/frames-per-second metrics only mean anything once the warmup and
# drain amortize across hundreds of thousands of publishes.

## bench-experiments: the fleet campaign benchmarks used in EXPERIMENTS.md's
## performance table; pipe through benchstat to compare runs
bench-experiments:
	$(GO) test . -run XXX -bench 'Fig7|Fig8|Vibration|EMI|CloneResistance|IIPMeasurement|MonitorAll' -benchtime 3x

## fuzz-short: a quick native-fuzzing pass over the adversarial-input
## decoders — the snapshot envelope, the WAL record scanner/replayer, and the
## binary stream frame codec must never panic or fabricate a record on
## adversarial bytes, and the attest envelope codec must agree with its
## retired two-pass oracle byte for byte (CI runs this on every push)
fuzz-short:
	$(GO) test ./internal/attest -run XXX -fuzz FuzzEnvelope -fuzztime 10s
	$(GO) test ./internal/store -run XXX -fuzz FuzzDecodeSnapshot -fuzztime 10s
	$(GO) test ./internal/store -run XXX -fuzz FuzzScanRecord -fuzztime 10s
	$(GO) test ./internal/store -run XXX -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzDecodeFrame -fuzztime 10s

## quality-guard: fail if detection quality regressed — divotlab re-runs the
## short fixed-seed grid and compares every cell's TPR/FPR and every ROC
## curve's AUC against the checked-in baseline (CI runs this on every push)
quality-guard:
	$(GO) run ./cmd/divotlab guard \
		-config experiments/grids/quality.json -baseline QUALITY_BASELINE.json

## quality-baseline: re-record QUALITY_BASELINE.json after a *deliberate*
## detector change (review the TPR/FPR diff before committing it)
quality-baseline:
	$(GO) run ./cmd/divotlab run \
		-config experiments/grids/quality.json -out QUALITY_BASELINE.json

## experiments: regenerate the detection-quality report and splice its
## ROC/operating-point tables into EXPERIMENTS.md between the divotlab markers
experiments:
	$(GO) run ./cmd/divotlab run \
		-config experiments/grids/roc.json \
		-out experiments/detection_quality.json -markdown EXPERIMENTS.md

vet:
	$(GO) vet ./...

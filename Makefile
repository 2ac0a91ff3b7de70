GO ?= go

.PHONY: all build test vet bench bench-micro bench-json fuzz chaos examples experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 1800s ./...

# Short mode skips the slow CLI-pipeline and wide-fit integration tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -run 'TestFitEndToEnd|TestFitGlobalOnly|TestStream|TestFitTraceConcurrent|TestFitGlobalSequenceCancel|TestFitCtx|TestFitCancel|TestFitLocalBoundsGoroutines|TestFitGlobalContainsWorkerPanic|TestFitLocalContainsCellPanic|TestFitWorkerCountInvariant|TestMultiStart|TestFitGlobalSequenceBoundsGoroutines' ./internal/core/
	$(GO) test -race -run 'TestMetrics|TestMiddleware|TestConcurrentStatefulTraffic|TestJobFitCancel|TestJobFitTrace|TestReadyz|TestConcurrentSpans|TestRecorderSlowTraceRetention|TestRecorderKeepsOpenTrace|TestRuntimeCollector' ./internal/service/ ./internal/obs/...
	$(GO) test -race ./internal/registry/ ./internal/jobs/ ./internal/faultfs/
	$(GO) test -race ./internal/lm/ ./internal/optimize/ ./internal/numcheck/

# Fault-injection suite: fit robustness plus the registry's crash/corruption
# chaos tests, under the race detector. TestChaosStreamLog* truncate and
# corrupt stream tick logs; the stream tests after them pin what an append
# must have made durable when it returns, or when it races a delete.
chaos:
	$(GO) test -race -run 'TestChaos|TestWriteFileAtomicCleansUp|TestLegacy' ./internal/registry/
	$(GO) test -race -run 'TestStreamRefitErrorAppendPersisted|TestDeleteStreamDuringRefitStaysDeleted|TestPersistedAppendSyncedBeforeAck|TestStreamCompactionReasons' ./internal/registry/
	$(GO) test -race ./internal/faultfs/
	$(GO) test -race -run 'Rejects|ContainsPanic|ContainsWorkerPanic|ContainsCellPanic|TestSimulateSanitises|TestFitGlobalValidatesTensor' ./internal/core/
	# Hostile-input matrix and overload resilience: the five adversarial
	# append schedules over HTTP against bounded streams, the breaker
	# lifecycle under injected fit faults, structured admission sheds, and
	# the 100-stream refit-stampede bound.
	$(GO) test -race -run 'TestHostileScenarioMatrix|TestBreakerLifecycleOverHTTP|TestJobFitShedsOnOpenBreaker|TestJobFitOverBudget429|TestAppendLagSheds429|TestReadyzEnumeratesReasons' ./internal/service/
	$(GO) test -race -run 'TestRefitStampedeBounded|TestBoundedStreamPersistRestore|TestAppendStreamPositioned' ./internal/registry/
	$(GO) test -race ./internal/admit/ ./internal/datagen/

bench:
	$(GO) test -bench=. -benchmem -run XXX .

# The fast micro-benchmarks only (seconds, not the multi-minute figure
# benchmarks): the hot-path kernels the performance work targets.
BENCH_MICRO = Simulate576|^BenchmarkJacobian$$|LevenbergMarquardt|^BenchmarkLMWideCandidate$$|GlobalFitSequence|^BenchmarkGlobalFitGrowth$$|^BenchmarkFitLocal$$|^BenchmarkForecast$$|MDLCost|RMSE576|^BenchmarkStreamAppend$$|^BenchmarkStreamForecast$$|^BenchmarkStreamColdFit$$
bench-micro:
	$(GO) test -bench='$(BENCH_MICRO)' -benchmem -run XXX .

# Benchmark trajectory: run the micro-benchmarks and convert the output to
# the committed BENCH_*.json format (see README, "Benchmark trajectory").
# BENCH_JSON names the output file and has no default, so a bare run cannot
# overwrite a committed record. Point BENCH_BEFORE at a previously captured
# `go test -bench` text file to record a proper before/after pair; without
# it the fresh run fills both sides (a flat baseline for the next change to
# diff against).
BENCH_AFTER_TXT ?= /tmp/dspot-bench-after.txt
bench-json:
ifndef BENCH_JSON
	$(error usage: make bench-json BENCH_JSON=BENCH_<n>.json [BENCH_BEFORE=<parent bench text>])
endif
	$(GO) test -bench='$(BENCH_MICRO)' -benchmem -run XXX . | tee $(BENCH_AFTER_TXT)
	$(GO) run ./cmd/benchjson -before $(if $(BENCH_BEFORE),$(BENCH_BEFORE),$(BENCH_AFTER_TXT)) \
		-after $(BENCH_AFTER_TXT) -out $(BENCH_JSON)

# go test runs one fuzz target per invocation. The fit fuzzer bounds each
# exec with a 300ms cooperative deadline; -fuzzminimizetime keeps the
# minimiser from replaying slow candidates for the default 60s.
fuzz:
	$(GO) test -fuzz=FuzzReadCSV$$ -fuzztime=30s ./internal/dataset/
	$(GO) test -fuzz=FuzzReadWideCSV -fuzztime=30s ./internal/dataset/
	$(GO) test -fuzz=FuzzReadModel -fuzztime=30s ./internal/dataset/
	$(GO) test -fuzz=FuzzDecodeManifest -fuzztime=30s ./internal/registry/
	$(GO) test -fuzz=FuzzRestoreState -fuzztime=30s -fuzzminimizetime=5s ./internal/registry/
	$(GO) test -fuzz=FuzzDecodeTickLog -fuzztime=30s ./internal/registry/
	$(GO) test -fuzz=FuzzFitSequence -fuzztime=30s -fuzzminimizetime=5s ./internal/core/
	$(GO) test -fuzz=FuzzJacobianConsistency -fuzztime=30s ./internal/core/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/events
	$(GO) run ./examples/forecast
	$(GO) run ./examples/worldmap
	$(GO) run ./examples/streaming

# Regenerate the paper's figures at full scale (minutes; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/dspot-exp -fig all -scale full

clean:
	$(GO) clean ./...

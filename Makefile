# Tier-1 verification and benchmark smoke for the repro module.
# CI invokes these targets directly (the bench and fuzz jobs run
# `make bench-json BENCHTIME=3x` and `make fuzz-smoke`), so the
# benchmark/fuzz target lists live here and nowhere else.

GO ?= go
# Benchmark iterations per benchmark: 1x locally for a fast smoke; CI
# raises it for the cross-run regression gate, since single-iteration
# ns/op on shared runners is too noisy to budget against.
BENCHTIME ?= 1x
# Seconds of coverage-guided fuzzing per target.
FUZZTIME ?= 10s

LINTBIN := $(abspath bin/axsnn-lint)

.PHONY: check fmt vet lint build test race bench bench-json fuzz-smoke loc loc-test

check: fmt vet lint build test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Standard vet, then the repo's own analyzers (internal/analysis)
# driven package-by-package through go vet's -vettool protocol — the
# incremental, build-cached form of `make lint`. The arm64 pass vets the
# portable half of the float32 kernels (axpy and the LIF step and
# gradient; amd64 runs their SSE assembly, whose frame offsets the amd64
# pass's asmdecl checks). The arm64 compiler fuses x*y + z into one
# rounding unless the product is converted explicitly, and the portable
# loops must round as amd64 does, so any fused multiply-add left in the
# arm64 code of internal/tensor or internal/snn fails vet.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/snn
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/tensor ./internal/snn 2>&1) || { echo "$$asm"; exit 1; }; \
	fma=$$(echo "$$asm" | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB'); \
	if [ -n "$$fma" ]; then echo "fused multiply-add on arm64 (round the product: float32(a*b) + c):"; echo "$$fma"; exit 1; fi
	$(GO) build -o $(LINTBIN) ./cmd/axsnn-lint
	$(GO) vet -vettool=$(LINTBIN) ./...

# The repo's invariant analyzers, standalone over the whole module:
# hotpathalloc (annotated hot paths and *Into/*Scratch kernels must not
# allocate), poolrelease (Acquire* paired with deferred Release*),
# atomicguard (atomic/mutex field discipline), forbiddenapi (no
# time.Now, global math/rand, fmt or reflect in kernels).
lint:
	$(GO) run ./cmd/axsnn-lint ./...

build:
	$(GO) build ./...

# The benchmark driver is a nested module (bench/, module repro/bench)
# that `./...` does not reach; vet and short-test it here so a serve
# API change that breaks it fails tier-1, not the benchmark run.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Whole suite under the race detector — the event-domain batch paths
# (PerturbSet, AQFSet, ParallelFor fan-out) run concurrently and any
# scheduling regression must fail loudly.
race:
	$(GO) test -race ./...

# One iteration of the hot-path benchmarks: keeps perf regressions
# visible without burning CI minutes. The kernel benchmarks (GEMM,
# ConvForward, ConvWeightGrad) live next to their kernels in
# internal/tensor.
bench:
	$(GO) test -run '^$$' -bench 'SNNInference|TrainStep|TrainFit|GEMM|ConvForward|ConvWeightGrad|LIF|PGDCraft|StreamWindow|StreamDecode|ServeWindow|ServeCreditWindow|ServeSlowConsumer|ServeRouted' -benchtime=1x . ./internal/tensor ./internal/stream ./internal/serve

# The machine-readable benchmark artifact CI archives (inference +
# training arenas, PGD crafting, event-domain attack/filter hot paths,
# the streaming window pipeline, the serve sessions).
# Staged through a file so a benchmark failure fails the target instead
# of hiding behind the pipe; the -zeroalloc gate fails it if the
# arena'd benchmarks regress above 0 allocs/op. `benchjson -compare
# prev.json` adds the cross-run regression gate CI applies between
# artifacts.
bench-json:
	$(GO) test -run '^$$' -bench 'Predict|PGDCraft|NeuromorphicPerturbSet|AQFFilterSet|SNNInference|TrainStep|GEMM|Stream|Serve|IncrementalAQF' \
		-benchtime=$(BENCHTIME) . ./internal/stream ./internal/serve > bench.txt
	$(GO) run ./cmd/benchjson -zeroalloc '^Benchmark(Predict(Int8)?|TrainStep|StreamWindow|StreamPipeline|ServeWindow|ServeCreditWindow)$$' < bench.txt > BENCH_pr10.json

# Short coverage-guided runs of the fuzz targets — the event codec's
# oracle contracts, the incremental AQF's bit-identity to the
# whole-stream reference in internal/defense's tests, and the serve
# framing layer (direct and through the router's frame-aware relay)
# against hostile client byte streams.
# Fails fast on the first failing target.
fuzz-smoke:
	@set -e; \
	for spec in "./internal/dvs FuzzStreamReader" "./internal/dvs FuzzStreamReaderReorderOracle" \
		"./internal/dvs FuzzStreamRoundTrip" "./internal/dvs FuzzReadAEDAT" \
		"./internal/defense FuzzIncrementalAQF" \
		"./internal/serve FuzzServeFraming" "./internal/serve FuzzRouterProxy"; do \
		set -- $$spec; \
		echo "== $$2 ($$1)"; \
		$(GO) test $$1 -run '^$$' -fuzz "^$$2$$" -fuzztime $(FUZZTIME) || { echo "FUZZ FAILURE: $$2 in $$1"; exit 1; }; \
	done

# The non-test Go code line count CHANGES reports before and after each
# change: every .go file outside testdata/ and hidden directories,
# except _test.go files, without blank lines and //-only comment lines.
loc:
	@find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | \
		xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'

# The same count over _test.go files only, so `make loc` plus
# `make loc-test` is the whole module: a change that deletes program
# code shows whether the code left or moved into tests.
loc-test:
	@find . -path './.*' -prune -o -name '*_test.go' ! -path '*/testdata/*' -print0 | \
		xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'

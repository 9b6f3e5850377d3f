# Build / test / benchmark entry points for the WDC Products reproduction.

GO ?= go

# The perf-trajectory benchmarks `make bench` records: the end-to-end
# pipeline build, the corner-selection microbenchmarks, the
# sigmoid lookup-table comparison, the blocking-scale / index-reuse /
# matcher / persistence / synthetic scale-out / IVF query benches (every
# kNN index is one engine; its build and query rows are the BlockingScale
# and BlockingReuse ones), the in-process serving benches at n=10k/100k —
# the read path one endpoint at a time (BenchmarkServeReadScale: p50 and
# p99 of single Match and Candidates calls), the ingest write path
# (BenchmarkServeIngestScale: per-batch publication latency and sustained
# ingest QPS through the incremental delta path, against the
# full-adjacency-rebuild baseline it replaced) and the cold start
# (BenchmarkServeNew: index build and initial epoch view timed apart) —
# and the MinHash write-path wait (BenchmarkMinHashAddUnderSweep: Add
# latency while subset queries sweep the index, at n=10k/100k), and the
# cold start's kernels one at a time over the synth 30k corpus
# (BenchmarkSignerSignature: MinHash signing per title;
# BenchmarkSortPairKeys: the pair-key sort of a full 16x4 query's 1.4M
# title keys). HTTP serving numbers come from wdcbench. The record goes
# to the gitignored bench-ci.json by default, so a local run never
# overwrites a committed BENCH_*.json; pass BENCH_OUT (and a BENCH_NOTE
# saying what it measures) to write a new one.
BENCH_OUT ?= bench-ci.json
BENCH_NOTE ?= local make bench run

# Coverage floor (percent of statements) enforced over the blocking stack
# by `make cover`.
COVER_FLOOR ?= 85

# Coverage artifacts land in an ignored build directory instead of
# littering the repo root.
BUILD_DIR ?= build

.PHONY: build test race vet docs bench cover fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race carries an explicit timeout: under -race, internal/experiments
# alone takes 11-12 minutes on a 2-vCPU host, past go test's 10-minute
# default.
race:
	$(GO) test -race -short -timeout 40m ./internal/experiments ./internal/matchers ./internal/embed ./internal/parallel ./internal/blocking ./internal/lsh ./internal/hnsw ./internal/ivf ./internal/persist ./internal/serve ./internal/serve/faults ./internal/synth

vet:
	$(GO) vet ./...

# docs fails when gofmt disagrees with any tracked Go file or when an
# exported identifier in the documented packages lacks a doc comment.
docs:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./cmd/doccheck . ./internal/blocking ./internal/lsh ./internal/hnsw ./internal/ivf ./internal/vector ./internal/simlib ./internal/persist ./internal/serve ./internal/serve/faults ./internal/synth

# cover enforces a statement-coverage floor over the blocking stack (the
# packages the reusable-index layer lives in), the snapshot envelope
# codec, the serving layer, and the synthetic scale-out generator. The
# floor guards the reuse, incremental-insertion, save/load round-trip,
# fault-path and generation-determinism tests from silently rotting. The
# profile is written to $(BUILD_DIR)/cover.out, which is gitignored.
cover:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -coverprofile=$(BUILD_DIR)/cover.out ./internal/blocking ./internal/lsh ./internal/hnsw ./internal/ivf ./internal/persist ./internal/serve ./internal/serve/faults ./internal/synth
	@total=$$($(GO) tool cover -func=$(BUILD_DIR)/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "blocking-stack coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# fuzz runs the short seed-corpus fuzz sessions CI runs: signature
# computation and index queries in internal/lsh, the BPE tokenizer in
# internal/tokenize, the blocking snapshot decoders (damaged snapshot
# bytes must surface typed errors, never panics), and the synthetic title
# perturbation operators (variants of any tokenizable title must stay
# tokenizable and internable). Each -fuzz invocation must match exactly
# one target, hence one run per fuzzer.
fuzz:
	$(GO) test ./internal/lsh -run '^$$' -fuzz '^FuzzSignature$$' -fuzztime 30s
	$(GO) test ./internal/lsh -run '^$$' -fuzz '^FuzzIndexQuery$$' -fuzztime 30s
	$(GO) test ./internal/tokenize -run '^$$' -fuzz '^FuzzBPEEncode$$' -fuzztime 30s
	$(GO) test ./internal/tokenize -run '^$$' -fuzz '^FuzzBPETrain$$' -fuzztime 30s
	$(GO) test ./internal/blocking -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime 30s
	$(GO) test ./internal/synth -run '^$$' -fuzz '^FuzzPerturbTitle$$' -fuzztime 30s

# bench regenerates $(BENCH_OUT) from the perf-trajectory benchmarks with
# allocation stats. Iteration-pinned benchtimes keep the expensive pipeline
# bench affordable. BenchmarkBlockingScale runs five times (about 9 s
# each on a 2-vCPU Xeon), since its MinHash rows move by up to a third
# between single runs, and so does BenchmarkIVFQueryScale, whose 100k
# row spans more than 2x between single runs, and so does
# BenchmarkMinHashAddUnderSweep, whose Add percentiles depend on where
# each Add lands in a sweep, and so does BenchmarkServeReadScale, whose
# candidates p50 moves by up to a third between runs, and so does
# BenchmarkServeNew, whose one cold start per run gives index-ms and
# view-ms no spread on its own, and so does BenchmarkServeIngestScale
# (about 8 s a run), whose single run cannot even order its n=10k and
# n=100k apply-us-per-batch, and so do the two kernel benches, whose
# iterations of a few tens of ms move with what else the host runs;
# benchjson folds the repeats into a median with min and max. The runs
# are collected into a temp file with && so a failing benchmark
# fails the target (and the CI job) instead of being swallowed by the
# pipe into benchjson.
bench:
	@tmp=$$(mktemp); \
	( $(GO) test -run '^$$' -bench 'BenchmarkFigure2_PipelineSteps' -benchmem -benchtime 3x . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkBlockingScale' -benchmem -benchtime 2x -count 5 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkBlockingReuse' -benchmem -benchtime 3x . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkMatcherBlocking' -benchmem -benchtime 1x . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSnapshotReload' -benchmem -benchtime 20x . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkSynthGrow$$' -benchmem -benchtime 1x -timeout 30m . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkSynthBlockingScale$$' -benchmem -benchtime 1x -timeout 30m . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkIVFQueryScale$$' -benchmem -benchtime 3x -count 5 -timeout 30m . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkServeReadScale$$' -benchmem -benchtime 200x -count 5 -timeout 30m ./internal/serve && \
	  $(GO) test -run '^$$' -bench '^BenchmarkServeIngestScale$$' -benchmem -benchtime 1x -count 5 -timeout 30m ./internal/serve && \
	  $(GO) test -run '^$$' -bench '^BenchmarkServeNew$$' -benchmem -benchtime 1x -count 5 -timeout 30m ./internal/serve && \
	  $(GO) test -run '^$$' -bench '^BenchmarkMinHashAddUnderSweep$$' -benchmem -benchtime 200x -count 5 -timeout 30m ./internal/blocking && \
	  $(GO) test -run '^$$' -bench '^Benchmark(SignerSignature|SortPairKeys)$$' -benchmem -benchtime 10x -count 5 -timeout 30m ./internal/blocking && \
	  $(GO) test -run '^$$' -bench 'CornerSearch' -benchmem -benchtime 50x ./internal/selection && \
	  $(GO) test -run '^$$' -bench 'Sigmoid' -benchtime 0.5s ./internal/embed ) > "$$tmp"; \
	status=$$?; cat "$$tmp"; \
	if [ $$status -ne 0 ]; then rm -f "$$tmp"; exit $$status; fi; \
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) -note '$(BENCH_NOTE)' < "$$tmp"; \
	status=$$?; rm -f "$$tmp"; exit $$status

#!/bin/sh
# CI verify recipe: build (all CLIs included), vet, a gofmt gate (any
# file gofmt would change fails the build), the repo's own
# contract analyzers (rainbar-lint, DESIGN.md §8, RB-U1's unreached-code
# rule included) beside the non-test Go line count, tests, the full suite
# under the race detector, a metrics smoke run, then a short fuzz smoke
# pass. The lint gate fails the build on any determinism /
# error-discipline / observability / concurrency contract breach; the
# race step protects the parallel experiment engine, the two-stage
# capture kernel and the sharded metrics recorder; the capture-identity
# gate holds that kernel byte-identical to its whole-frame reference at
# every CPU count; the streaming-identity gate holds the streamed round
# (frames rendered on demand, captures decoded in windows) identical to
# the eager render-all, film-all round at every CPU count, and the
# flat-memory gate holds a transfer's peak RSS flat in its frame count
# (DESIGN.md §11); the metrics smoke proves rainbar-bench can
# instrument a sweep end to end; the recovery
# smoke proves the decode-recovery ablation runs under the full ladder
# with cross-round combining; the allocation gate holds the steady-state
# receiver at 0 B/op and 0 allocs/op, recovery off and on (the DESIGN.md
# §11 hot-path memory contract);
# the bench smoke proves the perf-snapshot harness (scripts/bench.sh,
# BENCH_<n>.json) runs end to end; the serve soak and loadtest smoke
# gate the multi-session daemon (DESIGN.md §12); the fuzz steps
# keep the decode paths panic-free on corrupt input and hold the blob
# labeler identical to its flood-fill reference, the fused Sharpness
# kernel identical to its row-at-a-time reference and the capture
# kernel's certified dark surround off the screen at every jitter (Go
# runs one fuzz target per invocation, hence one line each). Set CI_FUZZ=0 to skip the
# fuzz smoke locally and keep the build+lint+test gate fast. Run before
# every merge.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go build -o /dev/null ./cmd/rainbar-bench
go build -o /dev/null ./cmd/rainbar-xfer
go build -o /dev/null ./cmd/rainbar-send
go build -o /dev/null ./cmd/rainbar-recv
go build -o /dev/null ./cmd/rainbar-debug
go build -o /dev/null ./cmd/rainbar-lint
go build -o /dev/null ./cmd/rainbar-serve
go vet ./...
test -z "$(gofmt -l .)"

# Lint gates, each timed against the <10s budget the interprocedural
# engine is held to: the -json gate is the machine-readable findings run
# (whole-module analysis included: RB-D4 taint, RB-S1 snapshot
# completeness, RB-C3/C4 serve concurrency, RB-U1 code no entry point
# reaches), and the -annotations gate audits every escape hatch, failing
# on stale rule IDs. (Timed with date(1), not the `time` keyword —
# /bin/sh is dash on some CI hosts.) The non-test Go line count printed
# beside them is the "least code" figure each change reports: .go files
# that are not _test.go, outside testdata/ and .bench_build/.
lint_t0=$(date +%s)
go run ./cmd/rainbar-lint -json ./... >/tmp/rainbar-lint.json
echo "rainbar-lint -json: $(($(date +%s) - lint_t0))s"
lint_t0=$(date +%s)
go run ./cmd/rainbar-lint -annotations ./...
echo "rainbar-lint -annotations: $(($(date +%s) - lint_t0))s"
echo "non-test Go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)"

go test ./...
go test -race ./...
go run ./cmd/rainbar-bench -exp fig10a -frames 1 -metrics - >/dev/null
go run ./cmd/rainbar-bench -exp recovery -frames 1 -recovery combine >/dev/null

# Serve gates: the 1000-session registry soak must be race-clean (it
# also runs inside `go test -race ./...`; this line keeps it visible as
# its own gate), and the loadtest smoke must emit a perf snapshot with
# the serve throughput/latency section populated.
go test -race -run TestServeSoak ./internal/serve
go run ./cmd/rainbar-serve -loadtest -sessions 4 -payload 300 -faults 'drop=0.5;' \
	-perf-json /tmp/rainbar-serve-smoke.json >/dev/null
grep -q '"sessions_per_sec"' /tmp/rainbar-serve-smoke.json
grep -q '"p99_round_seconds"' /tmp/rainbar-serve-smoke.json

# Durability gates: the chaos harness's kill-at-random-round property
# (crash, torn journal tail, Recover, bit-identical delivery; the harness
# lives in serve's test files) and the crash matrix (a kill after EVERY
# journal record) must hold under the race detector — crash recovery that
# only works without -race is not crash recovery.
go test -race -run 'TestChaos' ./internal/serve
go test -race -run TestCrashMatrixBitIdentical ./internal/serve

# Capture-identity gate: the streaming two-stage capture kernel
# (internal/channel/film.go) must match the whole-frame reference pipeline
# byte for byte, and leave the PRNG where the reference does, at 1, 2 and
# 4 CPUs and under the race detector (its sensor goroutine draws the
# noise, and either goroutine may finish a row); every pixel of its
# certified dark surround (internal/channel/surround.go) must film off the
# screen at every jitter.
go test -race -cpu 1,2,4 -run 'TestFilmMatchesReference|TestSurround' ./internal/channel

# Streaming-identity gate: a display that renders on demand, filmed
# capture by capture through Camera.FilmEach, must yield exactly what Film
# collects from pre-rendered frames, and a streamed transport round must
# leave exactly what the eager round left, at 1 and 2 CPUs and under the
# race detector (IngestBatch decodes each window on worker goroutines).
go test -race -cpu 1,2 -run 'TestFilmEach|TestStreamedRoundMatchesEager|TestRenderedDisplay|TestRelease' \
	./internal/screen ./internal/camera ./internal/transport

# Flat-memory gate: one transfer's peak RSS (each child process reports
# its own VmHWM, after the GC has reached its steady state) must not grow
# with its frame count.
go test -count=1 -run 'TestRoundMemoryFlat' ./internal/transport

# Allocation gate: the steady-state receiver benchmark must report
# 0 B/op and 0 allocs/op with the recovery ladder off and on (its two
# sub-benchmarks; TestReceiverSteadyStateAllocFree enforces the same
# contract in-process, and this reads the number the snapshots record).
# Both columns are read because allocs/op is an integer quotient over the
# 10 iterations: up to 9 allocations read as 0 allocs/op, but not as
# 0 B/op. The benchmark binary runs with the collector off and on one P,
# as that test measures: a collection empties the decode-scratch pool, and
# at 2 CPUs a pool miss on a P the goroutine has just moved to refills a
# scratch; either refill would read as allocations per op (DESIGN.md §11).
steady=$(go test -exec 'env GOGC=off' -run XXX -bench BenchmarkReceiverProcessSteady -benchtime 10x -benchmem -cpu 1 ./internal/core |
	awk '/^BenchmarkReceiverProcessSteady\// && $(NF-3) == "0" && $(NF-1) == "0" {n++} END {print n+0}')
test "$steady" = "2"

# Perf-snapshot smoke: the bench.sh harness must run end to end.
BENCHTIME=1x scripts/bench.sh /tmp/rainbar-bench-smoke.json >/dev/null

if [ "${CI_FUZZ:-1}" != "0" ]; then
	go test -fuzz=FuzzHeaderDecode -fuzztime=10s ./internal/core/header
	go test -fuzz=FuzzRSDecode -fuzztime=10s ./internal/rs
	go test -fuzz=FuzzFrameDecode -fuzztime=20s ./internal/core
	go test -fuzz=FuzzLadderDecode -fuzztime=20s ./internal/core
	go test -fuzz=FuzzBlackBlobs -fuzztime=10s ./internal/vision
	go test -fuzz=FuzzSharpness -fuzztime=10s ./internal/raster
	go test -fuzz=FuzzSurround -fuzztime=10s ./internal/channel
	go test -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/serve
	go test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/serve/journal
fi

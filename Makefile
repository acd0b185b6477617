GO ?= go

# bash + pipefail so a failing command isn't masked by the pipe it feeds.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: build test vet race bench loc fuzz chaos bench-module verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The dispatch worker pool, the network stack, the fault injector, and the
# campaign journal share state across worker goroutines; the obs registry is
# hammered concurrently by every instrumentation site, and the analysis
# accumulator/merge path folds shard partials produced by concurrent shards.
# A generated dex file's arenas are read by disassembly, the ART profiler
# and libradar at once (internal/synth's concurrent-reader test). Workers
# Put concurrently through apk.Check's and dex.Check's reused scratch
# (TestCheckConcurrent) and generate apps through apk.Encode's
# (TestEncodeConcurrent) and into dex files released through one idle
# list (TestGenerateAppReleaseConcurrent). The collector's barrier waiter map is shared by its receive loop and every
# worker (TestBarrierConcurrentClients hammers it). Every worker saves its
# own runs' evidence into one artifact store, concurrently
# (TestArtifactSaveConcurrentDistinctSHAs, TestWorkerSavesEvidenceBeforeEmit,
# TestEvidenceSaveFailureStopsStream).
# The root run is the determinism harness (TestDeterminism: every pinned
# row — shard coordinator, outcome-file merge, takeover, process-mode
# chaos — plus one fresh draw; TestResultStoreShardInvariance and
# TestResumeSnapshotUnderRunFaults, its named rows for store merge and
# the journal resume of faulted attempts) and
# TestRunContextSlowSinkAfterCancel, which exercises the emit/drain
# handoff of a cancelled stream under a slow sink, and
# TestReleasedFilesPoisoned, whose poisoned dex files would race with any
# reader that outlived their release. Keep all of them race-clean.
race:
	$(GO) test -race ./internal/dispatch/... ./internal/nets/... ./internal/faults/... ./internal/obs/... ./internal/journal/... ./internal/analysis/... ./internal/resultstore/... ./internal/dex/... ./internal/synth/... ./internal/apk/...
	$(GO) test -race -run 'TestDeterminism|TestResultStoreShardInvariance|TestResumeSnapshotUnderRunFaults|TestRunContextSlowSinkAfterCancel|TestReleasedFilesPoisoned' .

# The repo's benchmark (BENCHMARK.json): six end-to-end campaign workloads
# with a per-layer table, each run in its own process. bench_test.go holds
# host-time diagnostics only (`go test -run '^$$' -bench <regexp> -benchmem .`);
# the paper's measured numbers are EXPERIMENTS.md's blocks, pinned by
# TestReproductionRecord under `make test`.
bench:
	bash benchmark/run.sh

# Non-test Go lines of the campaign engine, its CLIs, and the flag
# package — the number a simplicity PR's author and reviewer both check —
# then the whole repo's (benchmark/ excluded), which ROADMAP item 3 is
# judged on, then the whole repo's test Go (benchmark/ included), which
# ROADMAP item 7 is judged on. All count tracked files only (git
# ls-files), so build trees a run leaves behind (.bench_build/) never
# inflate them.
LOC_DIRS = . internal/dispatch internal/journal internal/fleetflags cmd/libspector cmd/libreport examples/fleetscan
loc:
	@total=0; for d in $(LOC_DIRS); do n=$$(git ls-files ":(glob)$$d/*.go" | grep -v _test.go | xargs cat | wc -l); total=$$((total+n)); printf '%6d  %s\n' $$n $$d; done; printf '%6d  total\n' $$total
	@printf '%6d  whole repo, non-test Go, benchmark/ excluded\n' $$(git ls-files '*.go' | grep -v -e _test.go -e '^benchmark/' | xargs cat | wc -l)
	@printf '%6d  whole repo, test Go, benchmark/ included\n' $$(git ls-files '*_test.go' | xargs cat | wc -l)

# Fuzz smoke over everything fed by untrusted bytes, three targets (`go
# test -fuzz` accepts one per invocation): the registered-format harness
# (internal/codec/formats_test.go — every blob that crosses a process or
# a crash boundary, stored <sha>.run files, pcap captures, SDEX containers
# and apks included, one table row each, the readers of the last four held
# to an allocation ceiling proportional to their input, every single-bit
# flip of an accepted run file rejected, and the SDEX and apk
# checkers held to their decoders' verdicts), the pcap packet decoder, and
# the HTTP head parsers, held to their bufio.Scanner references — the
# last two read traffic rather than a format of ours. A short
# minimize budget keeps the harness exploring instead of shrinking each
# new input for up to a minute.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFormats$$' -fuzztime 60s -fuzzminimizetime 2s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzDecodeSegment -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz FuzzHTTPHead -fuzztime 10s ./internal/nets

# Process-level chaos smoke: a 4-shard `cmd/libspector -shards` campaign
# whose seeded schedule SIGKILLs two shard children and the coordinator
# itself (the script builds ./cmd/libspector, parent and children), resumed
# via the coordinator WAL until done, with the merged event log required
# byte-identical to a single-process baseline. Exercises real processes
# (Setpgid, group kill, /healthz probes) of the shipped binary, where the
# determinism harness's process-topology rows (TestDeterminism/
# ChaosKillResumeByteIdentical) cover the same invariant under `go test`.
chaos:
	./scripts/chaos_smoke.sh

# The benchmark is its own module, invisible to the root `go test ./...`;
# building and testing it is also the compile check that the facade and
# internal APIs it uses are all still there.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Tier-1 verification (see ROADMAP.md) plus vet, the race subset, the
# decoder fuzz smoke, the process-level chaos smoke, and the nested
# benchmark module.
verify: build vet test race fuzz chaos bench-module

GO ?= go

# bash + pipefail so a failing command isn't masked by the pipe it feeds.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: build test vet race bench loc fuzz chaos verify

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
# The root run covers the shard coordinator and outcome-merge paths
# end-to-end. Keep all of them race-clean.
race:
	$(GO) test -race ./internal/dispatch/... ./internal/nets/... ./internal/faults/... ./internal/obs/... ./internal/journal/... ./internal/analysis/... ./internal/resultstore/...
	$(GO) test -race -run 'TestShardCountInvarianceHonest|TestMergeShardOutcomesProcessMode|TestResultStoreShardInvariance|TestEventLogShardCountInvariance' .

# The repo's benchmark (BENCHMARK.json): six end-to-end campaign workloads
# with a per-layer table, each run in its own process. bench_test.go stays
# as per-layer diagnostics: `go test -run '^$$' -bench <regexp> -benchmem .`
bench:
	bash benchmark/run.sh

# Non-test Go lines of the campaign engine, its CLIs, and the flag
# package — the number a simplicity PR's author and reviewer both check.
LOC_DIRS = . internal/dispatch internal/journal internal/fleetflags cmd/libspector cmd/libreport examples/fleetscan
loc:
	@total=0; for d in $(LOC_DIRS); do n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); total=$$((total+n)); printf '%6d  %s\n' $$n $$d; done; printf '%6d  total\n' $$total

# Fuzz smoke over the wire-format decoders fed by untrusted bytes — the pcap
# packet decoder, the supervisor UDP report decoder, the journal replay
# reader, the artifact meta decoder, the shard-partial and shard-outcome
# decoders that parent processes feed with files written by (possibly
# crashed) shard children, and the result-store segment decoder. `go test
# -fuzz` accepts one target per invocation, hence one run each.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeSegment -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz FuzzDecodeReport -fuzztime 10s ./internal/xposed
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzArtifactMeta -fuzztime 10s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz FuzzShardOutcome -fuzztime 10s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz FuzzPartialDecode -fuzztime 10s ./internal/analysis
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 10s ./internal/resultstore

# Process-level chaos smoke: a 4-shard `cmd/libspector -shards` campaign
# whose seeded schedule SIGKILLs two shard children and the coordinator
# itself (the script builds ./cmd/libspector, parent and children), resumed
# via the coordinator WAL until done, with the merged event log required
# byte-identical to a single-process baseline. Exercises real processes
# (Setpgid, group kill, /healthz probes) where the in-tree chaos test
# (TestChaosKillResumeByteIdentical) covers the same invariant under
# `go test`.
chaos:
	./scripts/chaos_smoke.sh

# Tier-1 verification (see ROADMAP.md) plus vet, the race subset, the
# decoder fuzz smoke, and the process-level chaos smoke.
verify: build vet test race fuzz chaos

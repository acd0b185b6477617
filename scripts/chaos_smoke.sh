#!/usr/bin/env bash
# Process-level chaos smoke for the campaign supervisor (`make chaos`).
#
# Runs the same experiment twice:
#
#   1. a single-process baseline with -events-out,
#   2. a 4-shard campaign where the seeded chaos schedule SIGKILLs two
#      shard children mid-run and the coordinator itself mid-campaign
#      (so the first invocation MUST die), then re-runs with -resume
#      until the coordinator WAL replays to completion,
#
# and demands the merged event log of the survivor, and every stored run
# file, be byte-identical to the baseline's. This is the invariance bar from DESIGN.md: crashes,
# takeovers, and WAL replay may change how the campaign executes, never
# what it produces. Every shard child serves /healthz and /debug/vars on
# 127.0.0.1:(PROBE_PORT+i) for the parent's liveness probes and stall
# watcher; the deadline is generous, so a takeover the WAL blames on a
# stall is a false one and fails the smoke.
set -u -o pipefail

APPS=${APPS:-40}
SHARDS=${SHARDS:-4}
SEED=${SEED:-11}
CHAOS_SEED=${CHAOS_SEED:-7}
CHAOS_KILL=${CHAOS_KILL:-2}
MAX_RESUMES=${MAX_RESUMES:-4}
PROBE_PORT=${PROBE_PORT:-$((20000 + RANDOM % 20000))}
STALL_DEADLINE=${STALL_DEADLINE:-30s}

cd "$(dirname "$0")/.."

work=$(mktemp -d -t chaos-smoke.XXXXXX)
trap 'rm -rf "$work"' EXIT

echo "chaos-smoke: workdir $work"
go build -o "$work/libspector" ./cmd/libspector || exit 1

echo "chaos-smoke: baseline (single process, $APPS apps, seed $SEED)"
"$work/libspector" -apps "$APPS" -workers 8 -seed "$SEED" \
    -journal "$work/base.journal" -artifacts "$work/base-art" \
    -events-out "$work/base-events.jsonl" >"$work/base.log" 2>&1
rc=$?
if [ $rc -ne 0 ]; then
    echo "chaos-smoke: FAIL — baseline run exited $rc" >&2
    tail -20 "$work/base.log" >&2
    exit 1
fi

echo "chaos-smoke: chaos campaign ($SHARDS shards, chaos-seed $CHAOS_SEED, $CHAOS_KILL shard kills + coordinator kill)"
"$work/libspector" -apps "$APPS" -workers 8 -seed "$SEED" -shards "$SHARDS" \
    -journal "$work/chaos.journal" -artifacts "$work/chaos-art" \
    -events-out "$work/chaos-events.jsonl" \
    -probe-base-port "$PROBE_PORT" -stall-deadline "$STALL_DEADLINE" \
    -chaos-seed "$CHAOS_SEED" -chaos-kill "$CHAOS_KILL" >"$work/chaos.log" 2>&1
rc=$?
if [ $rc -eq 0 ]; then
    echo "chaos-smoke: FAIL — chaos campaign survived its own coordinator kill (expected nonzero exit)" >&2
    tail -20 "$work/chaos.log" >&2
    exit 1
fi
echo "chaos-smoke: first incarnation died as scheduled (exit $rc)"

converged=0
for i in $(seq 1 "$MAX_RESUMES"); do
    "$work/libspector" -apps "$APPS" -workers 8 -seed "$SEED" -shards "$SHARDS" \
        -journal "$work/chaos.journal" -artifacts "$work/chaos-art" \
        -events-out "$work/chaos-events.jsonl" \
        -probe-base-port "$PROBE_PORT" -stall-deadline "$STALL_DEADLINE" \
        -resume >"$work/resume$i.log" 2>&1
    rc=$?
    echo "chaos-smoke: resume $i exited $rc"
    if [ $rc -eq 0 ]; then
        converged=1
        break
    fi
done
if [ $converged -ne 1 ]; then
    echo "chaos-smoke: FAIL — campaign did not converge within $MAX_RESUMES resumes" >&2
    tail -20 "$work/resume$MAX_RESUMES.log" >&2
    exit 1
fi

if ! cmp "$work/base-events.jsonl" "$work/chaos-events.jsonl"; then
    echo "chaos-smoke: FAIL — merged event log differs from single-process baseline" >&2
    exit 1
fi

# The coordinator WAL must replay cleanly and record at least one
# takeover (the schedule killed shard children) and exactly one done.
go run ./cmd/libreport -wal "$work/chaos.journal.coordinator" >"$work/wal.txt" || {
    echo "chaos-smoke: FAIL — coordinator WAL did not replay cleanly" >&2
    exit 1
}
takeovers=$(grep -c '^\[ *[0-9]*\] takeover' "$work/wal.txt")
dones=$(grep -c '^\[ *[0-9]*\] done' "$work/wal.txt")
if [ "$takeovers" -lt 1 ] || [ "$dones" -ne 1 ]; then
    echo "chaos-smoke: FAIL — WAL shows $takeovers takeovers / $dones done records" >&2
    cat "$work/wal.txt" >&2
    exit 1
fi
# Every takeover must be a scheduled kill: healthy shards advance their
# watermark well within the stall deadline.
if grep -q '^\[ *[0-9]*\] takeover.*stalled' "$work/wal.txt"; then
    echo "chaos-smoke: FAIL — the WAL blames a takeover on a stall" >&2
    cat "$work/wal.txt" >&2
    exit 1
fi

# Evidence must survive the kills too: the shards' stores together hold
# exactly the baseline's run files, each byte-identical. A kill may leave
# the *.tmp-* residue of an interrupted save, which no reader looks at.
base_runs=$(cd "$work/base-art" && ls -- *.run | sort)
chaos_runs=$(cd "$work/chaos-art" && ls -- shard-*/*.run | xargs -n1 basename | sort)
if [ -z "$base_runs" ] || [ "$base_runs" != "$chaos_runs" ]; then
    echo "chaos-smoke: FAIL — the shards' run files differ from the baseline's set" >&2
    diff <(echo "$base_runs") <(echo "$chaos_runs") >&2
    exit 1
fi
for f in "$work"/chaos-art/shard-*/*.run; do
    if ! cmp -s "$f" "$work/base-art/$(basename "$f")"; then
        echo "chaos-smoke: FAIL — $f differs from the baseline's run file" >&2
        exit 1
    fi
done
runs=$(echo "$base_runs" | wc -l)

echo "chaos-smoke: OK — events and $runs run files byte-identical under $CHAOS_KILL shard kills + coordinator kill ($takeovers takeovers, WAL clean)"

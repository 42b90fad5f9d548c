#!/usr/bin/env bash
# Crash-point recovery matrix across real process boundaries.
#
# For each durable-operation index K, runs the release binary under a
# seeded `crash-at-write-K` disk-fault plan (the process aborts with exit
# code 86 at the K-th durable write or append — before it, mid-way with
# a torn temp file or a torn journal frame, or after the commit rename /
# the append's fsync, drawn from the seed), restarts with --resume
# against whatever the crash left on disk, and asserts the recovered
# --json summary is byte-identical to an uninterrupted run's. Both
# durable-state consumers are swept: `squatphi watch` (watermark
# checkpoints: a base snapshot plus a journal of appended deltas) and
# `repro` (write-once stage checkpoints).
#
# The in-process half of the matrix (panicking crash hook, every K and
# every kind of operation, 1/4/8 threads) lives in
# crates/core/tests/durable_state.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

CRASH_EXIT=86
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cargo build --release -p squatphi-cli -p squatphi-experiments
SQUATPHI=target/release/squatphi
REPRO=target/release/repro

# -- watch: watermark checkpoints (base + journal) --------------------------

"$SQUATPHI" watch --seed 7 --events 1000 --json > "$WORK/watch-baseline.json"

for k in 1 2 3 4 5 6 7 8; do
    dir="$WORK/watch-ckpt-$k"
    set +e
    "$SQUATPHI" watch --seed 7 --events 1000 --checkpoint "$dir" \
        --disk-faults "crash-at-write-$k" --disk-fault-seed "$k" \
        > /dev/null 2> "$WORK/watch-crash-$k.log"
    status=$?
    set -e
    if [ "$status" -ne "$CRASH_EXIT" ]; then
        echo "crash_matrix: watch K=$k exited $status, expected $CRASH_EXIT" >&2
        cat "$WORK/watch-crash-$k.log" >&2
        exit 1
    fi
    "$SQUATPHI" watch --seed 7 --events 1000 --checkpoint "$dir" --resume --json \
        > "$WORK/watch-resumed-$k.json"
    if ! cmp "$WORK/watch-baseline.json" "$WORK/watch-resumed-$k.json"; then
        echo "crash_matrix: watch K=$k resumed summary diverged" >&2
        exit 1
    fi
    echo "crash_matrix: watch K=$k crashed and recovered byte-identically" \
        "($(sed -n 's/.*simulated crash: //p' "$WORK/watch-crash-$k.log"))"
done

# The sweep has to reach past the first base: the crash logs name the
# operation (`append K (watch.gN.ckpt): …`, `write K (watch.gN.ckpt.tmp):
# …`, `commit of watch.gN.ckpt: …`), and in a fresh directory any base
# after generation 1 is a compaction.
if ! grep -qh 'simulated crash: append ' "$WORK"/watch-crash-*.log; then
    echo "crash_matrix: the watch sweep never crashed at a journal append" >&2
    exit 1
fi
if ! grep -qhE 'simulated crash: (write [0-9]+ \(|commit of )watch\.g([2-9]|[1-9][0-9]+)\.ckpt' \
        "$WORK"/watch-crash-*.log; then
    echo "crash_matrix: the watch sweep never crashed at a compaction" >&2
    exit 1
fi

# -- repro: stage checkpoints (scan, crawl, train) -------------------------

"$REPRO" --scale 2000 --threads 1 --json "$WORK/repro-baseline.json" table7 \
    > /dev/null 2> "$WORK/repro-baseline.log"

for k in 1 2 3; do
    dir="$WORK/repro-ckpt-$k"
    set +e
    "$REPRO" --scale 2000 --threads 1 --checkpoint-dir "$dir" \
        --disk-faults "crash-at-write-$k" --disk-fault-seed "$k" \
        --json "$WORK/repro-crashed-$k.json" table7 \
        > /dev/null 2> "$WORK/repro-crash-$k.log"
    status=$?
    set -e
    if [ "$status" -ne "$CRASH_EXIT" ]; then
        echo "crash_matrix: repro K=$k exited $status, expected $CRASH_EXIT" >&2
        cat "$WORK/repro-crash-$k.log" >&2
        exit 1
    fi
    "$REPRO" --scale 2000 --threads 1 --checkpoint-dir "$dir" --resume \
        --json "$WORK/repro-resumed-$k.json" table7 \
        > /dev/null 2> "$WORK/repro-resume-$k.log"
    if ! cmp "$WORK/repro-baseline.json" "$WORK/repro-resumed-$k.json"; then
        echo "crash_matrix: repro K=$k resumed summary diverged" >&2
        exit 1
    fi
    echo "crash_matrix: repro K=$k crashed and recovered byte-identically"
done

echo "crash_matrix: OK (all crash points recovered byte-identically)"

#!/usr/bin/env bash
# Runs one seeded --json surface of the release binaries twice and fails
# unless the two outputs are byte-identical (DESIGN.md §14: every JSON
# surface strips wall-clock timings, so nothing else may vary).
#
#   ci/determinism.sh scan|crawl|watch|repro|conformance|phash
#
# Outputs land in target/determinism/<surface>-{a,b}.json and are left in
# place so a job can upload them (the conformance report carries the
# shrunk violating inputs). `watch` is the interrupted run (--stop-after),
# the variant both the watch and the telemetry gates care about.
set -euo pipefail
cd "$(dirname "$0")/.."

surface=${1:?usage: ci/determinism.sh scan|crawl|watch|repro|conformance|phash}
out=target/determinism
mkdir -p "$out"
zone=$out/zone.txt
printf 'faceb00k.pw.\t300\tIN\tA\t203.0.113.1\npaypal-cash.com.\t300\tIN\tA\t203.0.113.3\npepper-garden.net.\t300\tIN\tA\t203.0.113.4\n' > "$zone"

squatphi() { cargo run --release -q -p squatphi-cli --bin squatphi -- "$@"; }

run() {
    local json=$1
    case $surface in
        scan) squatphi scan "$zone" --json > "$json" ;;
        crawl) squatphi crawl "$zone" --threads 1 --chaos every-2 --seed 3 --json > "$json" ;;
        watch) squatphi watch --seed 7 --events 2000 --stop-after 900 --json > "$json" ;;
        conformance) squatphi conformance --seed 1 --budget ci --json > "$json" ;;
        repro)
            cargo run --release -q -p squatphi-experiments --bin repro -- \
                --scale 2000 --threads 1 --json "$json" table7
            ;;
        phash)
            BENCH_QUICK=1 cargo run --release -q -p squatphi-bench --bin phash_baseline -- \
                "$json" --strip-timings
            ;;
        *)
            echo "determinism: unknown surface '$surface'" >&2
            exit 2
            ;;
    esac
}

run "$out/$surface-a.json"
run "$out/$surface-b.json"
cmp "$out/$surface-a.json" "$out/$surface-b.json"
echo "determinism: $surface --json is two-run byte-identical"

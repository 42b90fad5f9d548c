#!/usr/bin/env bash
# Runs one seeded --json surface of the release binaries twice and fails
# unless the two outputs are byte-identical (DESIGN.md §14: every JSON
# surface strips wall-clock timings, so nothing else may vary).
#
#   ci/determinism.sh scan|crawl|watch|repro|conformance|phash
#
# `scan` reads a generated zone of over 8 MiB, so the two runs also cross
# the import's chunk cuts. Outputs land in
# target/determinism/<surface>-{a,b}.json and are left in
# place so a job can upload them (the conformance report carries the
# shrunk violating inputs). `watch` runs its `a` side at --threads 4 and
# its `b` side at --threads 1, so the same `cmp` also proves the summary
# does not depend on the thread count — on the seed-2020 stream whose
# fingerprint once did, then on the interrupted run (--stop-after) as a
# second pair (watch-stop-{a,b}.json).
set -euo pipefail
cd "$(dirname "$0")/.."

surface=${1:?usage: ci/determinism.sh scan|crawl|watch|repro|conformance|phash}
out=target/determinism
mkdir -p "$out"
zone=$out/zone.txt
printf 'faceb00k.pw.\t300\tIN\tA\t203.0.113.1\npaypal-cash.com.\t300\tIN\tA\t203.0.113.3\npepper-garden.net.\t300\tIN\tA\t203.0.113.4\n' > "$zone"

# `scan` reads a ~12 MiB zone so its import crosses the 1 MiB chunk cuts
# of RecordStore::from_zone: A, CNAME, comment and blank lines, with five
# squats spread through it.
big_zone() {
    awk 'BEGIN {
        split("faceb00k.pw paypal-cash.com goofle.com.ua www.faceb00k.pw pepper-garden.net", squat, " ")
        for (i = 0; i < 200000; i++) {
            printf "host-%d.example-%d.com.\t300\tIN\tA\t10.%d.%d.%d\n", i, i % 613, int(i / 65536), int(i / 256) % 256, i % 256
            if (i % 5 == 0) printf "alias-%d.example.net.\t300\tIN\tCNAME\thost-%d.example-%d.com.\n", i, i, i % 613
            if (i % 97 == 0) printf "; block %d\n\n", i
            if (i % 40000 == 20000) printf "%s.\t300\tIN\tA\t203.0.113.%d\n", squat[int(i / 40000) + 1], int(i / 40000) + 1
        }
    }' > "$out/zone-big.txt"
    if [ "$(wc -c < "$out/zone-big.txt")" -lt $((8 << 20)) ]; then
        echo "determinism: generated zone is under 8 MiB" >&2
        exit 1
    fi
}

squatphi() { cargo run --release -q -p squatphi-cli --bin squatphi -- "$@"; }

run() {
    local name=$1 side=$2 json=$out/$1-$2.json
    local -A watch_threads=([a]=4 [b]=1) # only the watch surfaces vary it
    case $name in
        scan) squatphi scan "$out/zone-big.txt" --json > "$json" ;;
        crawl) squatphi crawl "$zone" --threads 1 --chaos every-2 --seed 3 --json > "$json" ;;
        watch)
            squatphi watch --seed 2020 --events 10000 --threads "${watch_threads[$side]}" \
                --json > "$json"
            ;;
        watch-stop)
            squatphi watch --seed 7 --events 2000 --stop-after 900 \
                --threads "${watch_threads[$side]}" --json > "$json"
            ;;
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
            echo "determinism: unknown surface '$name'" >&2
            exit 2
            ;;
    esac
}

compare() {
    local name=$1 note=
    run "$name" a
    run "$name" b
    cmp "$out/$name-a.json" "$out/$name-b.json"
    case $name in watch*) note=" (--threads 4 vs --threads 1)" ;; esac
    echo "determinism: $name --json is two-run byte-identical$note"
}

if [ "$surface" = scan ]; then
    big_zone
fi
compare "$surface"
if [ "$surface" = watch ]; then
    compare watch-stop
fi

#!/usr/bin/env bash
# Runs one seeded --json surface of the release binaries twice and fails
# unless the two outputs are byte-identical (DESIGN.md §14: every JSON
# surface strips wall-clock timings, so nothing else may vary).
#
#   ci/determinism.sh scan|crawl|watch|repro|conformance
#
# `scan` reads a generated zone of over 8 MiB, so the two runs also cross
# the import's chunk cuts. Outputs land in
# target/determinism/<surface>-{a,b}.json and are left in
# place so a job can upload them (the conformance report carries the
# shrunk violating inputs). `scan`, `watch` and `repro` run their `a` side
# at --threads 4 and their `b` side at --threads 1, so the same `cmp` also
# proves the output does not depend on the thread count. For `scan` the
# `cmp` skips exactly two lines, `"requested_workers"` and `"blocks"`:
# both are pure functions of --threads and the record count, and every
# other byte is compared as written. `watch` does so
# on the seed-2020 stream whose fingerprint once did, then on the
# interrupted run (--stop-after) as a second pair (watch-stop-{a,b}.json);
# `repro` on Table 7 (the cross-validation fan-out, and the page-analysis
# fan-out behind the JSON's cache hit/miss split), then on the stdout
# of every experiment (`repro all`) as a second pair (repro-all-{a,b}.txt)
# at --scale 400: the smallest run (divisors tried in steps of 50) in
# which Tables 3 and 4 both have tied rows, so their tie-break is checked
# along with the detection tables built on the OCR features. At 450
# Table 3's two rows do not tie; at 400 each table ties five.
set -euo pipefail
cd "$(dirname "$0")/.."

surface=${1:?usage: ci/determinism.sh scan|crawl|watch|repro|conformance}
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

# Where one side's output lands: JSON surfaces, or a report's stdout.
out_file() {
    case $1 in
        repro-all) echo "$out/$1-$2.txt" ;;
        *) echo "$out/$1-$2.json" ;;
    esac
}

run() {
    local name=$1 side=$2 json
    json=$(out_file "$1" "$2")
    local -A threads=([a]=4 [b]=1) # only the scan, watch and repro surfaces vary it
    case $name in
        scan) squatphi scan "$out/zone-big.txt" --threads "${threads[$side]}" --json > "$json" ;;
        crawl) squatphi crawl "$zone" --threads 1 --chaos every-2 --seed 3 --json > "$json" ;;
        watch)
            squatphi watch --seed 2020 --events 10000 --threads "${threads[$side]}" \
                --json > "$json"
            ;;
        watch-stop)
            squatphi watch --seed 7 --events 2000 --stop-after 900 \
                --threads "${threads[$side]}" --json > "$json"
            ;;
        conformance) squatphi conformance --seed 1 --budget ci --json > "$json" ;;
        repro)
            cargo run --release -q -p squatphi-experiments --bin repro -- \
                --scale 2000 --threads "${threads[$side]}" --json "$json" table7
            ;;
        repro-all)
            cargo run --release -q -p squatphi-experiments --bin repro -- \
                --scale 400 --threads "${threads[$side]}" all > "$json"
            ;;
        *)
            echo "determinism: unknown surface '$name'" >&2
            exit 2
            ;;
    esac
}

# The bytes of one side that must match the other: all of them, except
# the scan's two run-shape lines (see the header).
cmp_view() {
    case $1 in
        scan) grep -v -e '"requested_workers"' -e '"blocks"' "$2" ;;
        *) cat "$2" ;;
    esac
}

compare() {
    local name=$1 note=
    run "$name" a
    run "$name" b
    cmp <(cmp_view "$name" "$(out_file "$name" a)") <(cmp_view "$name" "$(out_file "$name" b)")
    case $name in scan | watch* | repro*) note=" (--threads 4 vs --threads 1)" ;; esac
    echo "determinism: $name output is two-run byte-identical$note"
}

if [ "$surface" = scan ]; then
    big_zone
fi
compare "$surface"
case $surface in
    watch) compare watch-stop ;;
    repro) compare repro-all ;;
esac

#!/usr/bin/env bash
# Fails when a new ad-hoc `*Metrics` struct appears outside
# crates/telemetry. All metrics belong in the telemetry registry; the
# structs below predate it and survive only as typed views over registry
# exports (DESIGN.md §14). Add to the allowlist only if the new struct is
# such a view — never for a struct that owns its own counters and JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

# path:struct pairs that are grandfathered telemetry views.
ALLOWED='
crates/crawler/src/metrics.rs:TransportMetrics
crates/ml/src/metrics.rs:Metrics
crates/dnsdb/src/scan.rs:ScanMetrics
crates/core/src/artifact.rs:AnalysisMetrics
crates/core/src/stream/counters.rs:WatchMetrics
'

fail=0
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    file=${hit%%:*}
    name=$(printf '%s' "$hit" | sed -E 's/.*struct ([A-Za-z0-9_]*Metrics).*/\1/')
    if ! printf '%s' "$ALLOWED" | grep -qx "${file}:${name}"; then
        echo "metrics_lint: new metrics struct ${name} in ${file}" >&2
        echo "  metrics belong in squatphi-telemetry (registry + invariants);" >&2
        echo "  see DESIGN.md §14 before adding a parallel surface." >&2
        fail=1
    fi
done <<EOF
$(grep -rn --include='*.rs' -E 'struct [A-Za-z0-9_]*Metrics( |\{|<)' crates | grep -v '^crates/telemetry/')
EOF

if [ "$fail" -eq 0 ]; then
    echo "metrics_lint: OK (no new *Metrics structs outside crates/telemetry)"
fi
exit "$fail"

#!/usr/bin/env bash
# Fails when a new direct `fs::write` / `fs::rename` call, or a file
# opened for appending (`OpenOptions` / `File::options()` with
# `.append(`), appears outside crates/durability. Durable state goes
# through the DurableStore / Journal / Vfs seam (header + CRC +
# generations + framed appends + fsync — DESIGN.md §16); a raw std::fs
# write or append is exactly the missing-fsync, torn-on-crash path the
# store exists to retire. Add to the allowlist only for one-shot *report
# output* files (whose loss on crash is harmless) or test fixtures —
# never for state a later run reads back.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files grandfathered for report/fixture writes.
ALLOWED='
crates/cli/src/commands.rs
crates/experiments/src/main.rs
crates/bench/src/bin/scan_baseline.rs
crates/bench/src/bin/crawl_baseline.rs
'

fail=0
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    file=${hit%%:*}
    if ! printf '%s' "$ALLOWED" | grep -qx "${file}"; then
        echo "fs_lint: direct filesystem write or append in ${hit}" >&2
        echo "  durable state belongs behind squatphi-durability's DurableStore/Vfs" >&2
        echo "  (fsynced atomic generations); see DESIGN.md §16 before bypassing it." >&2
        fail=1
    fi
done <<EOF
$(grep -rn --include='*.rs' -E 'fs::(write|rename)\(|\.append\((true|false)\)' crates | grep -v '^crates/durability/' || true)
EOF

if [ "$fail" -eq 0 ]; then
    echo "fs_lint: OK (no new fs::write/fs::rename/append-mode open outside crates/durability)"
fi
exit "$fail"

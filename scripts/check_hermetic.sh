#!/usr/bin/env bash
# Hermeticity check: every dependency in every workspace manifest must
# be a path dependency (or `workspace = true`, which resolves through
# the path-only [workspace.dependencies] table). Registry or git deps
# break `cargo build --offline` — the repo's only supported build.
#
# `.cargo/config.toml` sets build options for both workspaces; a
# [source], [registries], [registry] or [net] table in it could point
# cargo back at a registry without touching any manifest, so those are
# rejected too.
#
# Mirrored by the Rust test tests/hermeticity.rs (run via prism-harness)
# so CI catches violations even when this script isn't invoked.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Within dependency sections, flag lines that request a version,
    # git, or registry source without a path and without deferring to
    # the workspace table.
    bad=$(awk '
        /^\[/ { indep = ($0 ~ /dependencies/) }
        indep && !/^\[/ {
            line = $0
            sub(/#.*/, "", line)
            if (line ~ /=/ && line !~ /path/ && line !~ /workspace[ ]*=[ ]*true/ \
                && (line ~ /version/ || line ~ /git[ ]*=/ || line ~ /registry/ \
                    || line ~ /=[ ]*"[^"]*"[ ]*$/))
                print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "$bad"
        fail=1
    fi
done

if [ -f .cargo/config.toml ]; then
    bad=$(grep -nE '^[[:space:]]*\[+[[:space:]]*(source|registries|registry|net)([].[:space:]]|$)' \
        .cargo/config.toml || true)
    if [ -n "$bad" ]; then
        echo ".cargo/config.toml: $bad"
        fail=1
    fi
fi

if [ "$fail" -ne 0 ]; then
    echo "error: non-path dependencies (or a registry/network table in .cargo/config.toml) found; the workspace must build with 'cargo build --offline'" >&2
    exit 1
fi
echo "hermeticity check passed: all dependencies are path-only"

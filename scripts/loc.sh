#!/usr/bin/env bash
# Non-test Rust line count, per crate and in total.
#
# Counts every line (code, comments, blanks) of the `.rs` files under
# each crate's `src/` and under the root package's `src/`, minus each
# `#[cfg(test)]` module (the attribute line through the module's
# closing brace). Integration tests (`tests/`), examples and benches
# outside `src/` are not counted. Run it before and after a change to
# report the change's net line count; it gates nothing.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0 }
        !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            line = $0
            opens = gsub(/\{/, "", line)
            closes = gsub(/\}/, "", line)
            depth += opens - closes
            if (opens) opened = 1
            if (opened && depth <= 0) skip = 0
            next
        }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    case "$dir" in
        src) name=root ;;
        *) name=${dir#crates/}; name=${name%/src} ;;
    esac
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%-10s %7d\n' "$name" "$lines"
done
printf '%-10s %7d\n' total "$total"

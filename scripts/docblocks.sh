#!/usr/bin/env bash
# EXPERIMENTS.md quotes the `figures` binary verbatim: under every marker
# line `<!-- figures ARGS -->` the fenced block that follows must be the
# stdout of `figures ARGS`, byte for byte. Exits non-zero, naming each block
# that differs and printing the diff.
#
# `figures` is the only binary a marker may run, and ARGS may hold only
# flags and numbers, so a document cannot run anything else. A block is
# pasted as the binary prints it: after a change that moves a figure, paste
# the new stdout under its marker.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
doc="$root/EXPERIMENTS.md"

cargo build -q --release --manifest-path "$root/Cargo.toml" -p scidock-bench --bin figures
figures="${CARGO_TARGET_DIR:-$root/target}/release/figures"

# the block under marker line $1: from the fence after it to the closing one
block() {
    awk -v at="$1" 'NR == at + 1 { f = 1; next } f && /^```$/ { exit } f' "$doc"
}

failed=0
markers=0
while IFS=: read -r line marker; do
    markers=$((markers + 1))
    args="${marker#<!-- figures}"
    read -r -a argv <<<"${args%-->}"
    if [[ ! " ${argv[*]} " =~ ^(\ (--[a-z0-9-]+|[0-9]+))+\ $ ]]; then
        echo "$doc:$line: marker arguments must be flags and numbers: $marker" >&2
        failed=1
        continue
    fi
    if [[ "$(sed -n "$((line + 1))p" "$doc")" != '```'* ]]; then
        echo "$doc:$line: no fenced block under $marker" >&2
        failed=1
        continue
    fi
    if ! diff <(block "$line") <("$figures" "${argv[@]}" 2>/dev/null); then
        echo "$doc:$line: the block under $marker differs from \`figures ${argv[*]}\`" >&2
        failed=1
    fi
done < <(grep -n '^<!-- figures .*-->$' "$doc")

if [[ $markers -eq 0 ]]; then
    echo "$doc: no <!-- figures … --> marker" >&2
    exit 1
fi
if [[ $failed -ne 0 ]]; then
    exit 1
fi
echo "docblocks: $markers blocks of $doc match the figures binary"

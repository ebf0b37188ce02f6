#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of every `src/**/*.rs` of each
# crate in this repository, except test code as `scripts/testcut.sh` cuts it
# (a column-0 `#[cfg(test)]` item with its doc comments and attributes, and
# every file declared as a test module).
#
#   scripts/loc.sh          the working tree
#   scripts/loc.sh <rev>    <rev> against the working tree, with the change
#                           per crate
#
# The revision is exported with `git archive` into target/loc/<sha>/.
set -euo pipefail

if [[ $# -gt 1 ]]; then
    echo "usage: scripts/loc.sh [<rev>]" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

source "$root/scripts/testcut.sh"

count() { # tree → "<crate> <lines>" per crate, sorted by crate
    local tree="$1" manifest crate src
    for manifest in "$tree"/Cargo.toml "$tree"/*/Cargo.toml "$tree"/*/*/Cargo.toml; do
        crate="$(dirname "${manifest#"$tree"/}")"
        src="$tree/$crate/src"
        [[ -d "$src" && "$crate" != target* ]] || continue
        echo "$crate $(rust_lines "$src" | awk -F'\t' '$1 == "N" { n++ } END { print n + 0 }')"
    done | sort
}

tree="$(count "$root")"
if [[ $# -eq 0 ]]; then
    awk '{ printf "%-24s %8d\n", $1, $2; t += $2 } END { printf "%-24s %8d\n", "total", t }' \
        <<<"$tree"
    exit 0
fi

sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
src="$root/target/loc/${sha:0:12}"
if [[ ! -d "$src" ]]; then
    mkdir -p "$src.tmp"
    git -C "$root" archive "$sha" | tar -x -C "$src.tmp"
    mv "$src.tmp" "$src"
fi
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count "$src") - <<<"$tree" |
    awk -v rev="${sha:0:12}" '
        BEGIN { printf "%-24s %12s %12s %8s\n", "crate", rev, "tree", "change" }
        { printf "%-24s %12d %12d %+8d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
        END { printf "%-24s %12d %12d %+8d\n", "total", a, b, b - a }'

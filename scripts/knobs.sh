#!/usr/bin/env bash
# Public knobs per config type: for every `pub struct …Config` and
# `pub struct …Options` in the non-test code of each crate's `src/` (test
# code as `scripts/testcut.sh` cuts it), the number of its `pub` fields and
# of the `pub fn with_*` builders of its inherent `impl` blocks, then the
# totals — the count of independently settable values a caller faces.
#
#   scripts/knobs.sh          the working tree
#   scripts/knobs.sh <rev>    <rev> against the working tree, side by side
#
# The revision is exported with `git archive` into target/loc/<sha>/, the
# tree scripts/loc.sh counts too.
set -euo pipefail
export LC_ALL=C

if [[ $# -gt 1 ]]; then
    echo "usage: scripts/knobs.sh [<rev>]" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

source "$root/scripts/testcut.sh"

count() { # tree → "<crate>::<struct> <pub fields> <with_* builders>", sorted
    local tree="$1" manifest crate src
    for manifest in "$tree"/Cargo.toml "$tree"/*/Cargo.toml "$tree"/*/*/Cargo.toml; do
        crate="$(dirname "${manifest#"$tree"/}")"
        src="$tree/$crate/src"
        [[ -d "$src" && "$crate" != target* ]] || continue
        rust_lines "$src" | awk -F'\t' -v crate="${crate##*/}" "$CODE_AWK"'
            $1 != "N" { next }
            {
                line = substr($0, length($1) + length($2) + 3)
                s = code(line)
            }
            inside {
                if (inside == "struct" && s ~ /^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:/)
                    fields[name]++
                if (inside == "impl" && s ~ /^[[:space:]]*pub[[:space:]]+fn[[:space:]]+with_/)
                    builders[name]++
                depth += opens - closes
                if (depth <= 0) inside = ""
                next
            }
            s ~ /^[[:space:]]*pub[[:space:]]+struct[[:space:]]+[A-Za-z0-9_]*(Config|Options)[^A-Za-z0-9_;]*\{/ {
                name = s
                sub(/^[[:space:]]*pub[[:space:]]+struct[[:space:]]+/, "", name)
                sub(/[^A-Za-z0-9_].*$/, "", name)
                name = crate "::" name
                seen[name] = 1
                inside = "struct"; depth = opens - closes
                if (depth <= 0) inside = ""
                next
            }
            s ~ /^[[:space:]]*impl(<[^>]*>)?[[:space:]]+[A-Za-z0-9_]*(Config|Options)[^A-Za-z0-9_]/ && s !~ /[[:space:]]for[[:space:]]/ && opens > 0 {
                name = s
                sub(/^[[:space:]]*impl(<[^>]*>)?[[:space:]]+/, "", name)
                sub(/[^A-Za-z0-9_].*$/, "", name)
                name = crate "::" name
                inside = "impl"; depth = opens - closes
                if (depth <= 0) inside = ""
            }
            END {
                for (n in seen) print n, fields[n] + 0, builders[n] + 0
            }'
    done | sort
}

tree="$(count "$root")"
if [[ $# -eq 0 ]]; then
    awk '
        BEGIN { printf "%-36s %8s %8s\n", "config", "fields", "with_*" }
        { printf "%-36s %8d %8d\n", $1, $2, $3; f += $2; b += $3 }
        END { printf "%-36s %8d %8d\n", "total", f, b }' <<<"$tree"
    exit 0
fi

sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
src="$root/target/loc/${sha:0:12}"
if [[ ! -d "$src" ]]; then
    mkdir -p "$src.tmp"
    git -C "$root" archive "$sha" | tar -x -C "$src.tmp"
    mv "$src.tmp" "$src"
fi
join -a 1 -a 2 -e - -o 0,1.2,1.3,2.2,2.3 <(count "$src") - <<<"$tree" |
    awk -v rev="${sha:0:12}" '
        BEGIN {
            printf "%-36s %20s %20s\n", "", rev, "tree"
            printf "%-36s %10s %9s %10s %9s\n", "config", "fields", "with_*", "fields", "with_*"
        }
        {
            printf "%-36s %10s %9s %10s %9s\n", $1, $2, $3, $4, $5
            a += $2; b += $3; c += $4; d += $5
        }
        END { printf "%-36s %10d %9d %10d %9d\n", "total", a, b, c, d }'

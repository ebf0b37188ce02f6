#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of every `src/**/*.rs` of each
# crate in this repository, except test code. An item under a column-0
# `#[cfg(test)]` is test code, with the doc comments and attributes around
# that line: a `mod name;` declaration, or one braced item (a test module,
# an `impl` block, a function); counting resumes after its closing brace. A
# file its parent declares as a test module (`#[cfg(test)] mod name;`) is
# test code, and so is everything under it.
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

# a module declared from its parent's file: `mod name;`, `pub(crate) mod name;`
DECL='(^|[^A-Za-z0-9_])mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*;'

test_mods() { # src dir → "<dir>/<name>.rs" and "<dir>/<name>/" per test module
    find "$1" -name '*.rs' -print0 |
        xargs -0 -r awk -v decl="$DECL" '
            FNR == 1 { attr = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { attr = 1 }
            attr && match($0, decl) {
                name = substr($0, RSTART, RLENGTH)
                sub(/^.*mod[[:space:]]+/, "", name)
                sub(/[[:space:]]*;$/, "", name)
                # lib.rs, main.rs and mod.rs declare their siblings; foo.rs
                # declares what lives in foo/
                dir = FILENAME
                if (FILENAME ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
                else sub(/\.rs$/, "", dir)
                print dir "/" name ".rs"
                print dir "/" name "/"
            }
            !/^[[:space:]]*#\[/ { attr = 0 }'
}

count() { # tree → "<crate> <lines>" per crate, sorted by crate
    local tree="$1" manifest crate src
    for manifest in "$tree"/Cargo.toml "$tree"/*/Cargo.toml "$tree"/*/*/Cargo.toml; do
        crate="$(dirname "${manifest#"$tree"/}")"
        src="$tree/$crate/src"
        [[ -d "$src" && "$crate" != target* ]] || continue
        find "$src" -name '*.rs' | grep -v -F -f <(test_mods "$src") |
            tr '\n' '\0' |
            xargs -0 -r awk '
                # the line without escapes, string and char literals and a
                # trailing comment; sets `opens` and `closes` to its braces
                function code(s) {
                    gsub(/\\./, "", s)
                    gsub(/"[^"]*"/, "", s)
                    gsub(/\x27[^\x27]\x27/, "", s)
                    sub(/\/\/.*/, "", s)
                    opens = gsub(/\{/, "{", s)
                    closes = gsub(/\}/, "}", s)
                    return s
                }
                # one line of a test item: it ends at a `;` before any brace
                # (a declaration) or where its braces balance
                function item(s) {
                    s = code(s)
                    if (!opened && opens == 0) {
                        if (s ~ /;[[:space:]]*$/) skip = 0
                        return
                    }
                    opened = 1
                    depth += opens - closes
                    if (depth <= 0) skip = 0
                }
                FNR == 1 { skip = 0; held = 0 }
                skip && !opened && /^[[:space:]]*(#\[|\/\/\/)/ { next }
                skip { item($0); next }
                # column-0 doc comments and attributes count with the item
                # they precede
                /^(#\[|\/\/\/)/ && !/^#\[cfg\(test\)\]/ { held++; next }
                /^#\[cfg\(test\)\]/ {
                    skip = 1; opened = 0; depth = 0; held = 0
                    rest = $0
                    sub(/^#\[cfg\(test\)\][[:space:]]*/, "", rest)
                    if (rest != "") item(rest)
                    next
                }
                { n += held + 1; held = 0 }
                END { print n + held }' |
            awk -v crate="$crate" '{ n += $1 } END { print crate, n + 0 }'
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

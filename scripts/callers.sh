#!/usr/bin/env bash
# Public names that no code outside tests calls: every `pub` or `pub(crate)`
# fn, struct, enum, trait and type declared in the non-test code of
# `crates/*/src` that no non-test code outside its defining file names.
# Non-test code is what `scripts/loc.sh` counts (cut by
# `scripts/testcut.sh`); `benchmark/src`, `examples/` and the root `src/`
# count as callers too. A `pub use` re-export, a comment and a string
# literal name nothing. Each name is tagged `tests-only` when a test names
# it, `unused` otherwise.
#
#   scripts/callers.sh            every crate
#   scripts/callers.sh <crate>    one crate, by its directory under crates/
#
# A name is matched as a whole word, so a method whose name some other item
# shares (`new`, `len`) is never listed, and a type other files reach only
# through a function's return value is: the list holds candidates to read,
# not verdicts.
set -euo pipefail

if [[ $# -gt 1 ]]; then
    echo "usage: scripts/callers.sh [<crate>]" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ $# -eq 1 && ! -d "crates/$1/src" ]]; then
    echo "callers.sh: no crate crates/$1" >&2
    exit 2
fi

source scripts/testcut.sh

{
    for src in crates/*/src benchmark/src examples src; do
        rust_lines "$src"
    done
    find crates/*/tests tests -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '{ print "T\t" FILENAME "\t" $0 }'
} | awk -F'\t' -v only="${1:+crates/$1/src/}" "$CODE_AWK"'
    {
        tag = $1; file = $2; line = $3
        if (file != last) { last = file; lineno = 0; reexport = 0 }
        lineno++
        s = code(line)
        # a `pub use` names nothing, through the `;` that ends it
        if (s ~ /^[[:space:]]*pub(\([a-z]+\))?[[:space:]]+use[[:space:]]/) reexport = 1
        if (reexport) {
            if (s ~ /;/) reexport = 0
            next
        }
        if (tag == "N" && file ~ /^crates\/[^\/]+\/src\// && index(file, only) == 1 &&
            match(s, /^[[:space:]]*pub(\(crate\))?[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|type)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            decl = substr(s, RSTART, RLENGTH)
            sub(/^[[:space:]]*pub(\(crate\))?[[:space:]]+((const|async|unsafe)[[:space:]]+)*/, "", decl)
            split(decl, kn, /[[:space:]]+/)
            ndecl++
            dkind[ndecl] = kn[1]; dname[ndecl] = kn[2]; dfile[ndecl] = file; dline[ndecl] = lineno
        }
        gsub(/[^A-Za-z0-9_]+/, " ", s)
        nw = split(s, words, " ")
        for (i = 1; i <= nw; i++) {
            w = words[i]
            if (tag == "T") { tested[w] = 1; continue }
            if (!(w in first)) first[w] = file
            else if (first[w] != file) multi[w] = 1
        }
    }
    END {
        for (d = 1; d <= ndecl; d++) {
            w = dname[d]
            if (multi[w] || first[w] != dfile[d]) continue
            printf "%s:%d %s %s %s\n", dfile[d], dline[d], dkind[d], w,
                (w in tested) ? "tests-only" : "unused"
        }
    }' | sort -t: -k1,1 -k2,2n

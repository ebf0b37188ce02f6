# Sourced by scripts/loc.sh and scripts/callers.sh: which lines of a Rust
# source tree are test code.
#
# An item under a column-0 `#[cfg(test)]` is test code, with the doc
# comments and attributes around that line: a `mod name;` declaration, or one
# braced item (a test module, an `impl` block, a function); ordinary code
# resumes after its closing brace. A file its parent declares as a test
# module (`#[cfg(test)] mod name;`) is test code, and so is everything under
# it.
#
#   rust_lines <dir>    every line of every `*.rs` file under <dir>, as
#                       "<T|N><tab><file><tab><line>": T for test code, N for
#                       the rest

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

# an awk function: the line without escapes, string and char literals and a
# trailing comment; sets `opens` and `closes` to its braces
CODE_AWK='
    function code(s) {
        gsub(/\\./, "", s)
        gsub(/"[^"]*"/, "", s)
        gsub(/\x27[^\x27]\x27/, "", s)
        sub(/\/\/.*/, "", s)
        opens = gsub(/\{/, "{", s)
        closes = gsub(/\}/, "}", s)
        return s
    }'

rust_lines() {
    local mods
    mods="$(test_mods "$1")"
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk -v mods="$mods" "$CODE_AWK"'
            BEGIN { n = split(mods, m, "\n") }
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
            function emit(tag, line) { print tag "\t" FILENAME "\t" line }
            # doc comments and attributes held for the item they precede
            function release(tag) {
                for (i = 1; i <= held; i++) emit(tag, hold[i])
                held = 0
            }
            FNR == 1 {
                release("T")
                skip = 0
                whole = 0
                for (i = 1; i <= n; i++)
                    if (m[i] != "" && index(FILENAME, m[i]) == 1) whole = 1
            }
            whole { emit("T", $0); next }
            skip && !opened && /^[[:space:]]*(#\[|\/\/\/)/ { emit("T", $0); next }
            skip { emit("T", $0); item($0); next }
            # column-0 doc comments and attributes go with the item they
            # precede
            /^(#\[|\/\/\/)/ && !/^#\[cfg\(test\)\]/ { hold[++held] = $0; next }
            /^#\[cfg\(test\)\]/ {
                release("T")
                emit("T", $0)
                skip = 1; opened = 0; depth = 0
                rest = $0
                sub(/^#\[cfg\(test\)\][[:space:]]*/, "", rest)
                if (rest != "") item(rest)
                next
            }
            { release("N"); emit("N", $0) }
            END { release("N") }'
}

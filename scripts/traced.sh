#!/usr/bin/env bash
# One traced run of a benchmark workload on each side — a parent revision
# and this checkout — and every `scidock_provstore_*` and
# `scidock_serve_turn_*` sample of the daemon metrics the two runs scraped,
# side by side.
#
#   scripts/traced.sh <parent-rev> <workload> [seed]
#
# The parent is exported and built as scripts/ab.sh does it: `git archive`
# into target/ab/<sha>/src, built into target/ab/<sha>/target; this checkout
# builds into target/. Each side runs `--seed <seed> --seconds 12 --trace 1`
# (seed 1 by default) and writes <tree>/benchmark/out/<workload>-metrics.prom;
# a workload whose run leaves none (one without a daemon to scrape) is an
# error. Each run's full output is kept in target/ab/<sha>/logs/.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: scripts/traced.sh <parent-rev> <workload> [seed]" >&2
    exit 2
fi
rev="$1" workload="$2" seed="${3:-1}"
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "seed must be a number" >&2; exit 2; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
ab="$root/target/ab/${sha:0:12}"
mkdir -p "$ab/logs"
if [[ ! -f "$ab/src/BENCHMARK.json" ]]; then
    rm -rf "$ab/src"
    mkdir -p "$ab/src"
    git -C "$root" archive "$sha" | tar -x -C "$ab/src"
fi

# side → (tree, target directory)
declare -A tree=([parent]="$ab/src" [change]="$root")
declare -A target=([parent]="$ab/target" [change]="$root/target")

for side in parent change; do
    prom="${tree[$side]}/benchmark/out/$workload-metrics.prom"
    log="$ab/logs/$workload-$seed-$side-traced.txt"
    rm -f "$prom"
    echo "running the $side" >&2
    CARGO_TARGET_DIR="${target[$side]}" bash "${tree[$side]}/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 12 --trace 1 >"$log" 2>&1 || {
        echo "the $side run failed; see $log" >&2
        exit 1
    }
    [[ -f "$prom" ]] || {
        echo "the $side run of $workload left no $prom: no daemon metrics to compare" >&2
        exit 1
    }
done

python3 - "$workload" "${tree[parent]}/benchmark/out/$workload-metrics.prom" \
    "$root/benchmark/out/$workload-metrics.prom" <<'PY'
import sys
workload, parent, change = sys.argv[1:]
PREFIXES = ("scidock_provstore_", "scidock_serve_turn_")

def samples(path):  # "name{labels} value" lines → {name{labels}: value}
    out = {}
    for line in open(path):
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(None, 1)
        if name.startswith(PREFIXES):
            out[name] = value
    return out

p, c = samples(parent), samples(change)
names = sorted(set(p) | set(c))
width = max([len(n) for n in names] + [len("sample")])
print(f"{workload}: parent → change")
print(f"{'sample':<{width}}  {'parent':>14}  {'change':>14}")
for n in names:
    print(f"{n:<{width}}  {p.get(n, '-'):>14}  {c.get(n, '-'):>14}")
PY

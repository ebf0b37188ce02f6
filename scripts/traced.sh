#!/usr/bin/env bash
# One traced run of a benchmark workload on each side — a parent revision
# and this checkout — and the run's per-layer metrics side by side.
#
#   scripts/traced.sh <parent-rev> <workload> [seed]
#
# The parent is exported and built as scripts/ab.sh does it: `git archive`
# into target/ab/<sha>/src, built into target/ab/<sha>/target; this checkout
# builds into target/. Each side runs `--seed <seed> --seconds 12 --trace 1`
# (seed 1 by default). Each run's full output is kept in
# target/ab/<sha>/logs/.
#
# Printed, parent → change:
#   * the per-layer metrics of the run's JSON line (its last line of
#     output) whose names start with `scidock.act.`, `cumulus.`, `docking.`
#     or are `trace.tet_s`;
#   * every `scidock_provstore_*`, `scidock_serve_turn_*`,
#     `scidock_receptor_*`, `scidock_ligand_*`, `scidock_gridcache_*` and
#     `scidock_files_*`
#     sample of the daemon metrics the run scraped into
#     <tree>/benchmark/out/<workload>-metrics.prom — only for a workload
#     whose runs leave that file (one with a daemon to scrape).
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
declare -A log prom

for side in parent change; do
    prom[$side]="${tree[$side]}/benchmark/out/$workload-metrics.prom"
    log[$side]="$ab/logs/$workload-$seed-$side-traced.txt"
    rm -f "${prom[$side]}"
    echo "running the $side" >&2
    CARGO_TARGET_DIR="${target[$side]}" bash "${tree[$side]}/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 12 --trace 1 >"${log[$side]}" 2>&1 || {
        echo "the $side run failed; see ${log[$side]}" >&2
        exit 1
    }
done

python3 - "$workload" "${log[parent]}" "${log[change]}" "${prom[parent]}" "${prom[change]}" <<'PY'
import json, os, sys
workload, plog, clog, pprom, cprom = sys.argv[1:]
LAYERS = ("scidock.act.", "cumulus.", "docking.")
SAMPLES = (
    "scidock_provstore_",
    "scidock_serve_turn_",
    "scidock_receptor_",
    "scidock_ligand_",
    "scidock_gridcache_",
    "scidock_files_",
)

def layers(path):  # the run's last line: {"metrics": {name: {"value": v, "unit": u}}, ...}
    last = open(path).read().strip().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    return {
        n: f"{m['value']:.6g}"
        for n, m in metrics.items()
        if n.startswith(LAYERS) or n == "trace.tet_s"
    }

def samples(path):  # "name{labels} value" lines → {name{labels}: value}
    out = {}
    for line in open(path):
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(None, 1)
        if name.startswith(SAMPLES):
            out[name] = value
    return out

def table(title, p, c):
    names = sorted(set(p) | set(c))
    width = max([len(n) for n in names] + [len(title)])
    print(f"{title:<{width}}  {'parent':>14}  {'change':>14}")
    for n in names:
        print(f"{n:<{width}}  {p.get(n, '-'):>14}  {c.get(n, '-'):>14}")

print(f"{workload}: parent → change")
table("metric", layers(plog), layers(clog))
if os.path.exists(pprom) or os.path.exists(cprom):
    print()
    read = lambda path: samples(path) if os.path.exists(path) else {}
    table("sample", read(pprom), read(cprom))
PY

#!/usr/bin/env bash
# Alternated A/B pairs of one benchmark workload: a parent revision against
# this checkout.
#
#   scripts/ab.sh <parent-rev> <workload> <pairs>
#
# The parent is exported with `git archive` into target/ab/<sha>/src and
# built into its own CARGO_TARGET_DIR, target/ab/<sha>/target, so neither
# side can run the other's binaries (a `benchmark/` build without its own
# target directory measures whatever binary is already there). This checkout
# builds into target/, as benchmark/run.sh does by default.
#
# Pair k runs both sides with `--seed k --seconds 12 --trace 0`; odd pairs
# run the parent first, even pairs this checkout. Every pair prints the
# end-to-end metrics BENCHMARK.json lists, parent → change. The summary gives
# per metric and side the median [Q1..Q3] (Python's exclusive quartiles, as
# the benchmark's own `--ab`), the pairs the change wins, whether a gain
# would be claimable (the change wins at least 9 pairs in 10 and the medians
# differ by more than the parent's inter-quartile range), and the
# no-regression verdict against the metric's BENCHMARK.json `bound`, a
# fraction of the parent's median: "unresolved" when the parent's IQR is
# wider than the bound, else "REGRESSED" when the change's median is worse
# by more than the bound, else "within bound". Its last line totals each
# side's failed operations.
#
# Each run's full output is kept in target/ab/<sha>/logs/, and the table of
# values in target/ab/<sha>/<workload>.tsv.
set -euo pipefail

if [[ $# -ne 3 ]]; then
    echo "usage: scripts/ab.sh <parent-rev> <workload> <pairs>" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="$3"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive number" >&2; exit 2; }

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

run() { # side seed → the run's JSON line
    local side="$1" seed="$2" log="$ab/logs/$workload-$2-$1.txt"
    CARGO_TARGET_DIR="${target[$side]}" bash "${tree[$side]}/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 12 --trace 0 >"$log" 2>&1 || {
        echo "the $side run of pair $seed failed; see $log" >&2
        exit 1
    }
    tail -n 1 "$log"
}

for side in parent change; do
    echo "building the $side" >&2
    CARGO_TARGET_DIR="${target[$side]}" bash "${tree[$side]}/benchmark/run.sh" --help >/dev/null
done

tsv="$ab/$workload.tsv"
: >"$tsv"
for ((k = 1; k <= pairs; k++)); do
    if ((k % 2)); then order=(parent change); else order=(change parent); fi
    declare -A out=()
    for side in "${order[@]}"; do
        out[$side]="$(run "$side" "$k")"
    done
    printf '%s\t%s\t%s\t%s\n' "$k" "${order[0]}" "${out[parent]}" "${out[change]}" >>"$tsv"
    python3 - "$root/BENCHMARK.json" "$k" "${order[0]}" "${out[parent]}" "${out[change]}" <<'EOF'
import json, sys
spec, k, first, parent, change = sys.argv[1:]
metrics = [m["name"] for m in json.load(open(spec))["end_to_end"]]
p, c = json.loads(parent), json.loads(change)
cells = []
for m in metrics:
    a, b = [(side["metrics"].get(m) or {}).get("value") for side in (p, c)]
    cells.append(f"{m} {a if a is None else f'{a:.4g}'} -> {b if b is None else f'{b:.4g}'}")
failed = p["failed"] + c["failed"]
print(f"pair {k} ({first} first): " + ", ".join(cells) + (f", FAILED OPS {failed}" if failed else ""))
EOF
done

python3 - "$root/BENCHMARK.json" "$tsv" "$workload" <<'EOF'
import json, statistics, sys
spec, tsv, workload = sys.argv[1:]
ends = json.load(open(spec))["end_to_end"]
rows = [line.rstrip("\n").split("\t") for line in open(tsv)]
sides = {"parent": [json.loads(r[2])["metrics"] for r in rows],
         "change": [json.loads(r[3])["metrics"] for r in rows]}
n = len(rows)

def spread(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return med, q1, q3

print(f"{workload}: {n} pairs, parent → change")
for end in ends:
    name, lower = end["name"], end["better"] == "lower"
    value = lambda ms: (ms.get(name) or {}).get("value")
    pairs = [(value(p), value(c)) for p, c in zip(sides["parent"], sides["change"])]
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
    if not pairs:
        print(f"  {name}: not reported")
        continue
    par, chg = [a for a, _ in pairs], [b for _, b in pairs]
    (pm, p1, p3), (cm, c1, c3) = spread(par), spread(chg)
    wins = sum((b < a) if lower else (b > a) for a, b in pairs)
    gap = (cm - pm) / pm * 100 if pm else float("nan")
    claim = wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) and ((cm < pm) == lower)
    bound = end["bound"]
    worse = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else float("inf")
    spread_rel = (p3 - p1) / abs(pm) if pm else float("inf")
    if spread_rel > bound:
        verdict = f"unresolved (parent IQR {spread_rel:.1%} > bound {bound:.0%})"
    elif worse > bound:
        verdict = f"REGRESSED ({worse:.1%} worse > bound {bound:.0%})"
    else:
        verdict = f"within bound {bound:.0%}"
    print(f"  {name}: parent {pm:.4g} [{p1:.4g}..{p3:.4g}]  change {cm:.4g} [{c1:.4g}..{c3:.4g}]"
          f"  {gap:+.1f} %  change better {wins}/{len(pairs)}"
          f"  claimable (wins >= 9/10, gap > parent IQR): {'yes' if claim else 'no'}"
          f"  no-regression: {verdict}")
failed = {side: sum(json.loads(r[2 if side == "parent" else 3])["failed"] for r in rows)
          for side in ("parent", "change")}
print(f"  failed ops: parent {failed['parent']}, change {failed['change']}")
EOF

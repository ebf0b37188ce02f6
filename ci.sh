#!/usr/bin/env bash
# CI gate: formatting, lints, rustdoc, the tier-1 build, and every crate's tests.
# Run from the repository root:
#
#   ./ci.sh
#
# Everything must pass; clippy warnings are errors.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# broken and private intra-doc links fail the build
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# every public name of `cumulus` and `provenance` that no program calls is
# a deliberate one: `scripts/callers.sh` lists it and `scripts/callers.allow`
# says why it stays, and an allowed name the script no longer lists is stale
echo "== callers: cumulus and provenance ship what programs call =="
surface="$(
    { scripts/callers.sh cumulus; scripts/callers.sh provenance; } |
        awk 'NR == FNR {
                 if ($0 !~ /^#/ && NF) { sub(/:$/, "", $3); allowed[$1 " " $2 " " $3] = 1 }
                 next
             }
             { sub(/:[0-9]+$/, "", $1); k = $1 " " $2 " " $3; listed[k] = 1
               if (!(k in allowed)) print "not in scripts/callers.allow: " k }
             END { for (k in allowed) if (!(k in listed)) print "stale in scripts/callers.allow: " k }' \
            scripts/callers.allow -
)"
if [[ -n "$surface" ]]; then
    echo "$surface" >&2
    exit 1
fi

echo "== tier-1: cargo build --release =="
cargo build --release

# the paper's Figure 7–9 sweep as a user runs it: `SweepConfig::default()`
# through `scaling_sweep` over the full 10,000 pairs, ~2 s in release
echo "== example: cloud_scaling (release) =="
cargo run -q --release --example cloud_scaling >/dev/null

# Query 2 (Fig. 11: the ten largest `.dlg` files of a 4-thread real
# docking run) orders ties by file name, so two runs list the same files in
# the same order; only `fdir`, the activation directory, depends on thread
# timing. ~2 s per run in release
echo "== figures: Query 2 rows are the same run to run =="
query2() {
    cargo run -q --release -p scidock-bench --bin figures -- --query2 --scale 40 2>/dev/null |
        grep '\.dlg *|' | cut -d'|' -f3,4
}
first="$(query2)"
second="$(query2)"
if [[ -z "$first" || "$first" != "$second" ]]; then
    diff <(echo "$first") <(echo "$second") || true
    echo "Query 2 listed different (fname, fsize) rows in two runs" >&2
    exit 1
fi

# every figure EXPERIMENTS.md quotes under a `<!-- figures … -->` marker is
# what the binary prints: Figs 5–9, Query 1, cost and headline numbers and
# Table 3 at one tenth, each block diffed against `figures` with the
# marker's arguments (byte-stable run to run, ~7 s in release)
echo "== docs: EXPERIMENTS.md's figures blocks are the binary's stdout =="
scripts/docblocks.sh

# the root manifest is a package *and* a workspace: plain `cargo test` would
# only run the facade crate's tests
echo "== cargo test --workspace -q =="
cargo test --workspace -q

# `cargo test` builds the examples but runs none: run the tour of the
# provenance reader API (a simulated campaign, every steering helper, the
# PROV-N export), which exits non-zero on any error
echo "== example: provenance_steering =="
cargo run -q --example provenance_steering >/dev/null

# the two tours of the one-shot run config, each `expect`ing every step:
# failure injection and provenance resume, then telemetry with a steering
# tick (it writes target/scidock_trace.json)
echo "== examples: resume_reexecution, chrome_trace =="
cargo run -q --example resume_reexecution >/dev/null
cargo run -q --example chrome_trace >/dev/null

# the kernel property tests again in release, where the benchmark's AVX2
# instantiation of the evaluation body is the one that runs: they are
# docking's unit tests (`oracle::kernel_props`, `oracle::vexp_props`, and
# `grid::tests` against the test-only oracles in `docking/src/oracle.rs`);
# then the batched exp against libm over 10^7 arguments: ignored in the
# default run, ~1 s in release
echo "== docking: release tests and ignored sweeps =="
cargo test --release -p docking -q
cargo test --release -p docking -q -- --ignored

# the pocket search's unit tests (the pruned search against its scan on
# edge cases, generated receptors and random clouds) in the build the
# benchmark runs
echo "== molkit: release tests =="
cargo test --release -p molkit -q

# the pruned pocket search against the brute-force scan on every Table 2
# receptor: ignored in the default run, ~50 s in release (the scan is most of
# it: ~29 ms per search against ~3 ms pruned)
echo "== scidock: pocket parity sweep (release) =="
cargo test --release -p scidock -q --test pocket_parity -- --ignored

# the benchmark that gates PRs (BENCHMARK.json): its own unit tests, then a
# tenth-size run of every workload with every correctness gate — exits
# non-zero on any failed operation or golden-digest miss
echo "== benchmark: unit tests + smoke set =="
cargo test --manifest-path benchmark/Cargo.toml -q
bash benchmark/run.sh --smoke

# a manifest edit that changes a reachable crate's normal dependencies makes
# cargo rewrite the tracked benchmark/Cargo.lock during the two steps above
echo "== benchmark/ and BENCHMARK.json unchanged by the build =="
git diff --exit-code -- benchmark BENCHMARK.json

echo "CI OK"

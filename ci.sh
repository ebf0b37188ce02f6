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

echo "== tier-1: cargo build --release =="
cargo build --release

# the root manifest is a package *and* a workspace: plain `cargo test` would
# only run the facade crate's tests
echo "== cargo test --workspace -q =="
cargo test --workspace -q

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

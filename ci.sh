#!/usr/bin/env bash
# CI gate: formatting, lints, the tier-1 build, and every crate's tests.
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

echo "== telemetry: disabled-overhead smoke =="
cargo run --release -p scidock-bench --bin telemetry_bench -- --smoke

echo "== docking kernels: parity + speedup smoke (naive vs cell-list/parallel) =="
cargo run --release -p scidock-bench --bin dock_bench -- --smoke

echo "== provstore: durable-write overhead smoke =="
cargo run --release -p scidock-bench --bin provstore_bench -- --smoke

echo "== prov query engine: indexed steering p95 + speedup gates =="
cargo run --release -p scidock-bench --bin prov_bench -- --smoke

echo "== distbackend: 2-worker smoke =="
cargo run --release -p scidock-bench --bin dist_bench -- --smoke

echo "== elastic fleet: queue-depth autoscaler beats a fixed 1-worker fleet =="
cargo run --release -p scidock-bench --bin fleet_bench -- --smoke

echo "== observability: disabled-overhead bound + /metrics+/healthz scrape smoke =="
cargo run --release -p scidock-bench --bin obs_bench -- --smoke

echo "== scidockd: overload/latency load smoke =="
cargo run --release -p scidock-bench --bin serve_bench -- --smoke

echo "CI OK"

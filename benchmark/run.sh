#!/usr/bin/env bash
# Build the shipped scidockd / scidock-worker binaries and the benchmark, then
# run it. Arguments go to the benchmark unchanged; see README.md here, or
#   benchmark/run.sh --help
# With --workload W the last line of stdout is the one-line JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# One target directory for the product binaries and the benchmark, so the
# benchmark finds them next to itself. A relative CARGO_TARGET_DIR is taken
# against the caller's directory, as cargo would.
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$(dirname "$here")/target" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# cargo reports on stderr; stdout stays the benchmark's own
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p scidock-benchmark -p scidock-bench \
    --bin scidock-benchmark --bin scidockd --bin scidock-worker

exec "$CARGO_TARGET_DIR/release/scidock-benchmark" "$@"

#!/usr/bin/env bash
# Builds the release `merced` binary and the benchmark from this checkout,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-hit --seed 1 --seconds 20 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build); per-run
# records (provenance, spans) go to $CARGO_TARGET_DIR/perfbench-runs.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/core || ! -d recorded/golden ]]; then
    echo "perfbench: run from the root of a full checkout of the repository" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ppet-core --bin merced >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --merced "$CARGO_TARGET_DIR/release/merced" \
    --work "$CARGO_TARGET_DIR/perfbench-runs" \
    "$@"

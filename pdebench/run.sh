#!/usr/bin/env bash
# Build the pde binary and the benchmark from source, then run one
# benchmark workload. Run from the root of a checkout:
#   bash pdebench/run.sh --workload sync_batch --seed 1 --seconds 20 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# messages go to stderr, so stdout carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin pde >&2
cargo build --release --offline --quiet --manifest-path pdebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pdebench" --pde "$CARGO_TARGET_DIR/release/pde" "$@"

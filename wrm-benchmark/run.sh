#!/usr/bin/env bash
# Builds the `wrm` CLI and the benchmark with the release profile, then
# runs the benchmark with the given arguments, e.g.
#
#   bash wrm-benchmark/run.sh --workload cli-oneshot --seed 42 --seconds 20 --trace 0
#   bash wrm-benchmark/run.sh check
#
# Both builds share one target directory: $CARGO_TARGET_DIR if set,
# otherwise target/ at the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p wrm-cli
cargo build --release --offline --quiet --manifest-path wrm-benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/wrm-benchmark" "$@"

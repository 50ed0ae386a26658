#!/usr/bin/env bash
# Build esr-tcpd and the benchmark from source, then run one benchmark
# run. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_hot_mix --seed 1 --seconds 8 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p esr-net --bin esr-tcpd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/esr-tcpd" "$@"

#!/usr/bin/env bash
# Builds the server under test and the benchmark from source, then runs the
# benchmark with the arguments given. Run from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload lubm_point --seed 1 --seconds 8 --trace 0
#
# Both builds share one target directory, so the benchmark finds
# `turbohom-server` beside its own executable. The server is built through the
# repository's workspace, with the profile settings of the root manifest.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
cargo build --release --quiet --offline -p turbohom-service --bin turbohom-server
cargo build --release --quiet --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark package offline and runs every workload in smoke
# mode (shrunk sizes, traced, all output checks on; timings printed, not
# compared). Ready for a CI job to call from the repo root or anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path bench/Cargo.toml
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml --bin bench -- smoke

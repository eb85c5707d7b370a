#!/usr/bin/env bash
# Builds the benchmark package and runs it: one command for every number.
#   benchmark/run.sh                      one full set, end-to-end metrics
#   benchmark/run.sh --trace              ... plus the per-layer traced runs
#   benchmark/run.sh --repeat 2           two sets, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one measuring process; last line is JSON
# See --help and benchmark/README.md.
set -euo pipefail

# Run from the repo root: the root .cargo/config.toml (AVX2 + FMA) applies to
# builds started there, and the program's paths are relative to it.
cd "$(dirname "$0")/.."

# Build output goes to stderr so that standard output ends with the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bcc_benchmark" "$@"

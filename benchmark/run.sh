#!/usr/bin/env bash
# The one command. Builds the benchmark (offline, release) and runs it.
#
#   bash benchmark/run.sh                      every workload: three untraced runs each, then
#                                              the traced run; writes benchmark/out/result-<seed>.json
#   bash benchmark/run.sh suite --runs 10 --seed 1 --out a.json
#   bash benchmark/run.sh compare a.json b.json
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                              one run; the last line of stdout is the result
#
# Run from anywhere; paths are relative to the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/tcpfo-benchmark" "$@"

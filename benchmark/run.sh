#!/usr/bin/env bash
# The one command: builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload: timed passes, then the traced pass
#   benchmark/run.sh --workload <name>    one workload
#   benchmark/run.sh --seed <n>           another seed (inputs are a function of it)
#   benchmark/run.sh --smoke              2 passes x 0.3 s: checks every path, measures nothing
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         what BENCHMARK.json's driver calls: the last line of
#                                         stdout is one JSON object of the end-to-end metrics
#                                         (--trace 0) or the per-layer metrics (--trace 1)
#
# Prints `workload metric unit value` rows and writes them, with the
# pass spreads, to benchmark/out/results.json. Exits non-zero when a
# check fails. Run it from the repository root: its scratch paths stay
# relative, since a unix socket's address is at most ~100 bytes.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench" run --out "$here/out" "$@"

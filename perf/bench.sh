#!/usr/bin/env bash
# Benchmark entry point, run from the repository root:
#
#   bash perf/bench.sh --workload W --seed S --seconds T --trace 0|1
#
# Builds both harness binaries (`perf` and the traced `layers`) from
# source, then hands every argument to `perf run`, which with `--trace 1`
# runs `layers` instead. The last line of stdout is the one-line JSON
# result. Outside a full checkout the build fails and nothing is printed.
set -euo pipefail
cargo build --release --quiet --offline --manifest-path perf/Cargo.toml --bins
exec "${CARGO_TARGET_DIR:-perf/target}/release/perf" run "$@"

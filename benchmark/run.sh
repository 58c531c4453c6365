#!/usr/bin/env bash
# One command for the repo benchmark: builds the harness in release mode,
# then hands every argument to the gate.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one run; the last stdout line is the JSON result
#       (the form BENCHMARK.json's `command` is invoked in)
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K]
#       the full set: every workload untraced, then traced; --repeat 2
#       runs two sets and fails if any end-to-end metric moved by more
#       than its bound
#   benchmark/run.sh --check | --smoke
#       exactness only: one verified pass / one short round per workload
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/gate" "$@"

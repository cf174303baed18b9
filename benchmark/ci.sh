#!/usr/bin/env bash
# Build the benchmark, run the whole suite in --quick mode, compare the
# result against itself, and run the benchmark's own tests. Fails when any
# workload reports a failed operation (fail_ratio > 0), when `compare`
# finds a regression, or when a test fails. Takes well under a minute once
# built; not wired into .github/workflows yet.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/dr-benchmark"

out="out/ci"
rm -rf "$out"

# `run` exits non-zero when any workload's record says correct = false.
"$bin" run --quick --trace --out "$out"
"$bin" compare "$out/result.json" "$out/result.json" --same-code

cargo test --release --offline

#!/usr/bin/env bash
# The figure outputs are pinned: the simulator is byte-deterministic, so the
# quick-scale stdout of every figure/table binary must equal its committed
# crates/bench/golden/<bin>.txt byte for byte. A change that means to move a
# figure regenerates the file (cp target/golden/*.txt crates/bench/golden/)
# and the diff of that file is its claim.
set -euo pipefail
cd "$(dirname "$0")/../.."
unset DR_FULL

cargo build --offline --release -p dr-bench --bins
bin_dir=${CARGO_TARGET_DIR:-target}/release
mkdir -p target/golden

# Every binary has a golden file and every golden file a binary.
diff <(ls crates/bench/src/bin | sed 's/\.rs$//') <(ls crates/bench/golden | sed 's/\.txt$//')

for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    "$bin_dir/$bin" > "target/golden/$bin.txt"
    if ! diff -u "crates/bench/golden/$bin.txt" "target/golden/$bin.txt"; then
        echo "golden.sh: $bin no longer prints crates/bench/golden/$bin.txt" >&2
        exit 1
    fi
    echo "golden.sh: $bin ok"
done

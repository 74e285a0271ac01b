#!/usr/bin/env bash
# Builds the `qserve` server and the layerbench client from this
# checkout's sources, then runs one benchmark invocation:
#
#   bash layerbench/run.sh --workload nisq_suite --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); journals,
# scratch files and trace files go to .bench_run. Both are relative to
# the directory the command runs from, which must be the checkout root.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
if [ ! -f Cargo.toml ] || [ ! -d crates/qserve ] || [ ! -f "$here/Cargo.toml" ]; then
    echo "layerbench: run from the root of a full checkout (Cargo.toml and crates/ are missing)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p qserve --bin qserve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/layerbench" --qserve "$target/release/qserve" --run-dir .bench_run "$@"

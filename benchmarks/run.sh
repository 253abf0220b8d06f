#!/usr/bin/env bash
# Builds the benchmark package (offline) and runs it.  Every flag is passed
# through to the binary; see README.md or `run.sh --help`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
export BATON_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BATON_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/baton-benchmarks" --out-dir "$here/out" "$@"

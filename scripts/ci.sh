#!/usr/bin/env bash
# Tier-1 verification, run fully offline: the workspace is hermetic
# (std-only, path dependencies only), so a network-less build MUST work.
# Any attempt to pull a registry crate is a failure, not an environment
# problem.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== no process-global mutable state (non-test source under crates/) =="
scripts/check-global-state.sh

echo "== build (release, offline) =="
cargo build --release
cargo build --release --workspace --bins

echo "== perfbench self-tests (every recorded input's statistics, short length) =="
# The benchmark is its own package; its gate replays every input recorded
# in perfbench/expected.txt, so a speed-only change that moves any
# simulated statistic fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== rustdoc (warnings are errors, binaries included) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --bins

echo "== fmt =="
cargo fmt --all -- --check

if command -v cargo-clippy >/dev/null 2>&1; then
    echo "== clippy =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping =="
fi

echo "== test (workspace, including formerly-slow ignored tests) =="
cargo test -q --workspace -- --include-ignored

echo "CI OK"

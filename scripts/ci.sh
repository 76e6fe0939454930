#!/usr/bin/env sh
# Tier-1 verification, fully offline.
#
# The workspace has no crates.io dependencies (see DESIGN.md, "Offline-first
# dependency policy"), so everything here must succeed with the network
# unplugged. CARGO_NET_OFFLINE=1 turns any accidental reintroduction of an
# external dependency into a hard resolver error instead of a hidden fetch.
#
# Usage: scripts/ci.sh [--no-fmt]
#   --no-fmt   skip the rustfmt gate (e.g. toolchains without rustfmt)

set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=1

run() {
    echo "==> $*"
    "$@"
}

if [ "${1:-}" != "--no-fmt" ]; then
    run cargo fmt --check
fi

run cargo build --release --workspace
# Lints are a gate: every target, tests included, builds warning-free.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo test -q --workspace
# The benchmark package (its own workspace) drives the serving and chaos
# soaks through their public entry points.
run cargo test -q --release --offline --manifest-path hcc_benchmark/Cargo.toml

echo "tier-1: OK"

# Every end-to-end check of hcc_lab runs in the tests above: thread-count
# invariance against the goldens, the soaks at their lab sizes, every
# side file and every refusal (crates/bench/tests/, tests/perturbation).
# What stays here is the wall-clock gate and a smoke of the release bin.

# Hot-path wall-clock gate: full-suite scenarios/sec must stay within the
# 30% regression budget of the committed BENCH_hotpaths.json baseline.
# The binary exits nonzero on a breach; after an intentional perf
# change, re-bless with HCC_BLESS=1 ./target/release/hotpaths.
run ./target/release/hotpaths

# The release front door runs the paper's scorecard and exits 0.
echo "==> ./target/release/hcc_lab summary >/dev/null"
./target/release/hcc_lab summary >/dev/null

echo "ci: OK"

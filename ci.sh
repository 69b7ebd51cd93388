#!/usr/bin/env bash
# Tier-1 verification entry point — what CI runs and what a PR must keep
# green. Mirrors the "Developing" recipe in README.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> apc-lint (in-tree determinism & safety lint, deny-by-default)"
# Wall-clock reads, hash-order iteration, unannotated unwraps, NaN-unsafe
# comparators, raw thread spawns, and the reserved-tag layout. Diagnostics
# are file:line: rule: message; suppress a site with a reasoned
# `// apc-lint: allow(<rule>): <reason>`. See README "Static analysis".
cargo run -q -p apc-lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (every crate's suite, one pass)"
cargo test --workspace -q
echo "    covered: umbrella tests/ (pipeline_e2e, properties, store_roundtrip," \
  "exec_policy_determinism, staged_determinism, frame_serving, replay_fanout," \
  "substrate_interplay), apc-store sharding + shard_adversarial + cache units," \
  "apc-replay, apc-serve (serve core, wire codec, ladder), apc-core serving +" \
  "controller, apc-comm session_stress, apc-bench golden_reports, apc-lint fixtures," \
  "apc-compress format_pin + bitio boundary table + adversarial"

echo "==> cargo test -p apc-compress --release -q (the codec kernels as the benchmark runs them)"
# The debug pass above traps shift widths of 0 and 64 with overflow checks;
# this one runs the same suite, format pin included, on the optimised code.
cargo test -p apc-compress --release -q

echo "==> benchmark package compiles (outside the workspace; nothing else checks it)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark package unit tests (BENCHMARK.json freshness, --check gating, TracedBackend transparency)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

echo "==> rustdoc lint (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> compile-check examples and benches"
cargo build --examples --benches --quiet

echo "ci.sh: all green"

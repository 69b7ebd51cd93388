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
  "controller, apc-comm session_stress, apc-bench golden_reports, apc-lint fixtures"

echo "==> benchmark package compiles (outside the workspace; nothing else checks it)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> rustdoc lint (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> compile-check examples and benches"
cargo build --examples --benches --quiet

echo "==> perf trajectory gate (kernels bench vs bench_baseline.json)"
# Regenerates target/experiments/bench_kernels.json, then diffs its wall
# times against the committed baseline with a tolerance band (default
# 2.5x slowdown fails; tune with APC_BENCH_TOL). The baseline is only
# meaningful for the machine class it was generated on — regenerate it
# on the enforcing hardware with APC_UPDATE_BASELINE=1 ./ci.sh, and on a
# machine class the baseline does not describe, run with a wider
# APC_BENCH_TOL or APC_PERF_GATE=skip rather than trusting the verdict.
cargo bench -p apc-bench --bench kernels >/dev/null
if [ "${APC_PERF_GATE:-on}" = "skip" ]; then
  echo "perf gate: skipped (APC_PERF_GATE=skip)"
else
  cargo run --release -q -p apc-bench --bin perf_gate
fi

echo "ci.sh: all green"

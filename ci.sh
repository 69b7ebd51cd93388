#!/usr/bin/env bash
# Tier-1 verification entry point — what CI runs and what a PR must keep
# green. Mirrors the "Developing" recipe in README.md.
set -euo pipefail
cd "$(dirname "$0")"

# step <title>: close the open step with its wall seconds (bash's
# $SECONDS), then open the next one under its "==>" title; `step ""` closes
# the last. A failing step ends the script before its time is printed.
step_title=""
step_start=0
step() {
  if [[ -n $step_title ]]; then
    echo "<== $((SECONDS - step_start)) s: $step_title"
  fi
  step_title=$1
  step_start=$SECONDS
  if [[ -n $step_title ]]; then
    echo "==> $step_title"
  fi
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (warnings are errors; every allow/expect carries a reason)"
# The root clippy.toml bans the determinism breakers everywhere, tests
# included: real-clock reads, HashMap/HashSet, raw thread spawns and
# partial_cmp. Every library crate root but apc-bench's denies
# clippy::{unwrap_used, expect_used, panic} outside cfg(test). A justified
# site takes a reasoned `#[expect(clippy::<lint>, reason = "...")]`; a
# reasonless allow/expect fails here, and so does a stale expect
# (unfulfilled_lint_expectations).
cargo clippy --workspace --all-targets -q -- -D warnings -D clippy::allow_attributes_without_reason

step "apc-lint (dead-pub, deny-by-default)"
# `dead-pub`: a `pub` item in crates/*/src that only tests, examples,
# re-exports, its own body or its own `impl` blocks name (benchmark/src is
# read as a caller, never linted). Diagnostics are file:line: rule:
# message; keep an item with a reasoned
# `// apc-lint: allow(dead-pub): <reason>`. See README "Static analysis".
cargo run -q -p apc-lint

step "cargo build --release"
cargo build --release

step "cargo test --workspace -q (every crate's suite, one pass)"
cargo test --workspace -q

step "cargo test -p apc-compress --release -q (the codec kernels as the benchmark runs them)"
# The debug pass above traps shift widths of 0 and 64 with overflow checks;
# this one runs the same suite, format pin included, on the optimised code.
# On an AVX2/BMI2/LZCNT host that is fpz's dispatched encoder, which
# dispatched_encoder_is_the_portable_encoder also compares byte for byte
# with the portable body.
cargo test -p apc-compress --release -q

step "cargo test --release -q -p apc-metrics -p apc-render -p apc-comm -p apc-grid -p apc-store -p apc-cm1 -p apc-serve -p apc-replay (the kernels as the benchmark runs them)"
# VAR's lane sums (the score bits are pinned; on an AVX2 host that is the
# kernel picked at run time, which the parity test also checks against the
# portable one), the isosurface mask table and the collectives on optimised
# code; the debug pass above keeps trapping overflow and the debug_assert
# that ties the mesh builder's emitted triangles to the count table. A
# lost wake-up in the one wait loop, for a collective's release (the
# lapping stress hunts for one) or for a message (`mailbox_stress`), fails
# here the moment the run stalls, with the arrival count or the stranded
# `(src, lane)`: the waker that forgets a rank also
# forgets to uncount it, so the rank stays counted parked. The grid, store
# and cm1 suites put the shared block payload, the LRU charged at decoded
# sizes, a rank read's one cache transaction (every key looked up under one
# lock, misses inserted under one more) and DirStore's held file handles on
# optimised code too; the serve suite does the same for FrameStore over a
# DirStore, the shared ReplyChecker and the typed reply's meter, which
# replay_fanout runs; the replay suite runs the pool planner's merge of
# sorted arrivals against its all-arrivals-heap oracle.
cargo test --release -q -p apc-metrics -p apc-render -p apc-comm -p apc-grid -p apc-store -p apc-cm1 -p apc-serve -p apc-replay

step "cargo test --release -q -p insitu --test replay_fanout --test staged_determinism --test frame_serving --test session_faults --test shared_payload --test pipeline_e2e --test exec_policy_determinism --test store_roundtrip --test properties (the serving executors, the block exchange and the synchronous loop, in memory and store-fed, as the benchmark runs them)"
# Staged serving and the replay pool are where p2p blocking matters: 272
# ranks parked on selective receives. The debug pass above pins their
# reports; this one runs the same suites on the optimised mailbox, where a
# lost wake-up fails the moment the run stalls (see above), naming the
# stranded rank's (src, lane). `session_faults` kills a rank, a replay
# server or a serving stager mid-run and holds each to failing at once.
# `shared_payload` pins a full block's samples as one buffer from
# `read_chunk` through the `alltoallv` exchange, on the optimised build.
# `pipeline_e2e` and `exec_policy_determinism` pin the synchronous loop's
# reports. Each step boundary pays the barrier's charge on the rank's own
# clock and takes the clock of the next meeting — the sort's, the first
# counter allreduce's, a barrier's only where the next step is local, none
# where the clocks already agree: optimised code must leave every rank at
# the same clock bits as the debug pass. `store_roundtrip` and `properties`
# run the store-fed synchronous loop (`store_replay`'s path) and the
# chunk-cache sweeps on optimised code.
cargo test --release -q -p insitu --test replay_fanout --test staged_determinism --test frame_serving --test session_faults --test shared_payload --test pipeline_e2e --test exec_policy_determinism --test store_roundtrip --test properties

step "cargo test --release -q -p apc-core; -p apc-bench --test golden_reports --test sweep_engine (the goldens on the code the figures run)"
# Every figure binary and the benchmark run --release; the debug pass above
# is the only other place the fig06-fig11 and serving goldens are compared.
# apc-core's own suite includes the staged frame engine's contract tests
# (`staged::engine`, among them the DropOldest rule
# `drop_oldest_drops_exactly_the_overtaken_slices`), so the engine the
# benchmark's serve_adaptive runs is checked on optimised code here.
# Two invocations: given `--test` names, cargo skips apc-core's own tests.
cargo test --release -q -p apc-core
cargo test --release -q -p apc-bench --test golden_reports --test sweep_engine

step "stored-dataset replay smoke (env var -> bin -> layout -> Scale::from_env -> Prepared::from_store)"
# The one end-to-end run of the path no unit test reaches: the same tiny
# dataset written flat and sharded by the write_dataset bin, one pipeline
# figure replayed from each through APC_DATASET, and the two CSVs equal.
cargo build --release -q -p apc-bench --bin write_dataset --bin fig06_fixed_percent
smoke=target/ci_smoke
rm -rf "$smoke"
(
  export APC_GEOM=tiny APC_RANKS=4 APC_STORE_ITERS=4
  target/release/write_dataset "$smoke/flat" >/dev/null
  APC_SHARD_CHUNKS=16 target/release/write_dataset "$smoke/sharded" >/dev/null
)
grep -q '"shard_chunks": 16' "$smoke/sharded/meta.json"
if grep -q shard_chunks "$smoke/flat/meta.json"; then
  echo "flat dataset records a shard layout" >&2
  exit 1
fi
for layout in flat sharded; do
  APC_DATASET="$smoke/$layout" target/release/fig06_fixed_percent >/dev/null
  cp target/experiments/fig06_fixed_percent.csv "$smoke/$layout.csv"
done
cmp "$smoke/flat.csv" "$smoke/sharded.csv"

step "fig05_redistribution at quick scale against its golden (the figure binary itself, 64 and 400 ranks)"
# The golden_reports fixtures replay fig06-fig11's grids on the tiny
# geometry; this is a figure binary's own CSV, paper-scaled storm and both
# rank counts, as the generator before the row-wise one wrote it. ~15 s,
# nearly all of it generating 2 x 12 iterations; ~1.4 GB resident.
cargo build --release -q -p apc-bench --bin fig05_redistribution
target/release/fig05_redistribution >/dev/null
cmp target/experiments/fig05_redistribution.csv crates/bench/tests/golden/fig05.csv

step "fig12-fig15 at quick scale against their goldens (staged, frame serving, replay fan-out, adaptive serving)"
# The four serving-side figure binaries' own CSVs, none with a wall-clock
# column: the staged merge of sim and viz logs, the replay trace's
# generator, the pool's steal charge and the render-cost calibration, end
# to end. ~35 s, most of it fig12 and fig13 generating their 64- and
# 400-rank inputs.
cargo build --release -q -p apc-bench --bin fig12_staged_vs_sync --bin fig13_frame_serving \
  --bin fig14_replay_fanout --bin fig15_adaptive_serving
for fig in fig12_staged_vs_sync fig13_frame_serving fig14_replay_fanout fig15_adaptive_serving; do
  target/release/$fig >/dev/null
  cmp "target/experiments/$fig.csv" "crates/bench/tests/golden/${fig%%_*}.csv"
done

step "ablations at quick scale against their goldens (network, sort, downsample, controller)"
# The ablations binary's own CSVs: the GigE rows of the network ablation
# run over their own session, the rest over the shared 64/400-rank inputs.
# ablation_entropy_bins.csv is not compared: its kernel_wall column is
# wall-clock time. ~15 s.
cargo build --release -q -p apc-bench --bin ablations
target/release/ablations >/dev/null
for a in network sort downsample controller; do
  cmp "target/experiments/ablation_$a.csv" "crates/bench/tests/golden/ablation_$a.csv"
done

step "benchmark package compiles (outside the workspace; nothing else checks it)"
# --locked: benchmark/Cargo.lock is frozen with the benchmark, so a change
# to any crate's [dependencies] fails here instead of rewriting it. Two
# edges exist only for that lockfile: apc-core -> apc-stage and apc-stage
# -> apc-comm (apc-stage is an empty package); ROADMAP 2(h) removes them
# with the benchmark's next manifest change, not before.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

step "benchmark package unit tests (BENCHMARK.json freshness, --check gating, TracedBackend transparency)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

# bench_digest <workload> <seed> <seconds> <trace> <digest>: one benchmark
# run; prints its result line (and, traced, the workload's discrimination
# line) and fails unless no op failed and the report digest is <digest>. A
# discrimination under its floor is a failed op.
bench_digest() {
  local out
  out="$(bash benchmark/run.sh --workload "$1" --seed "$2" --seconds "$3" --trace "$4")"
  grep -E '^(result|info discrimination)' <<<"$out"
  if ! grep -q "^result .* failed 0 digest $5\$" <<<"$out"; then
    echo "$1 seed-$2 run (trace $4): digest is not $5, or an op failed (traced: a share under its floor?)" >&2
    exit 1
  fi
}

step "benchmark digest: sync_adaptive, seed 42 (the generated bits at paper scale, end to end)"
# One iteration of the 6400-block paper-scaled storm (14.7 Mpts) generated,
# then scored, sorted, reduced, redistributed and rendered adaptively at 64
# ranks; the digest folds the run's iteration reports — the score order,
# triangle counts and virtual seconds downstream of every generated block.
# `crates/cm1/tests/field_pin.rs` pins sampled fields bit by bit; this is
# the paper-scale fence. (The three stages below compare the other three
# seed-42 digests.)
bench_digest sync_adaptive 42 1 0 eef30fa47b6271d8

step "benchmark degrade floor: serve_adaptive, seed 42, traced (discrimination runs only here)"
# The workload's own check — degrading must use more than
# DEGRADE_SHARE_FLOOR of a budgeted sweep's CPU — runs in the traced pass
# only, and a failed discrimination is a failed op. A change that makes
# the degrade path cheap enough to sink under the floor (a faster zfpx
# decoder, a reply cache: ROADMAP items 4 and 5) fails here, before the
# PR driver's traced run does; so does one that moves the served bytes.
bench_digest serve_adaptive 42 4 1 b87ec648e373c0dd

step "benchmark store floor: store_replay, seed 42, traced (discrimination runs only here)"
# The store workload's own check — store and codec spans must hold more
# than half of a cycle's CPU — also runs in the traced pass only. A faster
# fpz lowers that share (0.87 -> 0.81 with the fused coder), so a codec change
# meets the floor here first; the digest folds every replayed report, so
# one that moves a stored or decoded byte fails here too.
bench_digest store_replay 42 4 1 497235393972ad56

step "benchmark digest: replay_fanout, seed 42 (the replay pool's plan, routes and replies, end to end)"
# 8192 arrivals from 256 clients planned onto 16 servers and served over
# 272 ranks; the digest folds the whole run — every server's stats and every
# request's log — so a change to the pool's serial prelude (resolution, the
# cost estimates the plan balances by), to routing, stealing or the wire
# shows here. It was the one seed-42 digest no stage compared.
bench_digest replay_fanout 42 2 0 7621ebad6bb3edb2

step "benchmark digests at a second seed: sync_adaptive, store_replay and serve_adaptive, seed 7"
# The same folds over another storm. Seed 42 alone could miss a change that
# only moves ties, NaN ordering or a block's rank at other scores: the
# reduce cut and round-robin dealing are decided per rank from the shared
# sorted list, and a rank read looks its chunks up before inserting them.
# Both were measured on the whole-domain tables those decisions replaced.
# serve_adaptive runs the staged engine and the live stager: its seed-7
# digest folds every served reply and the controller's percent, and was
# measured on the engine's three-container DropOldest queue.
bench_digest sync_adaptive 7 1 0 0d01154ad7a83b83
bench_digest store_replay 7 4 0 7cc0586dd857156c
bench_digest serve_adaptive 7 2 0 3414685cb6429b29

step "rustdoc lint (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "compile-check examples and benches"
cargo build --examples --benches --quiet

step ""
echo "ci.sh: all green in $SECONDS s"

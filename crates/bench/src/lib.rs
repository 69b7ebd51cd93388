//! Benchmark harnesses regenerating every table and figure of the paper.
//!
//! Layout:
//!
//! * [`harness`] — run scales (quick vs `APC_SCALE=full`), the
//!   [`harness::Prepared`] input (pre-generated blocks + persistent rank
//!   session) whose [`run_sweep`](harness::Prepared::run_sweep) replays whole
//!   configuration sweeps over one set of rank threads, CSV output under
//!   `target/experiments/`, ASCII tables;
//! * [`experiments`] — one module per paper table/figure plus the
//!   ablations. A figure exposes `run(&Scale)`, or `run(&Ctx, &Scale)`
//!   when it replays the shared prepared inputs (fig05–fig13); the
//!   ablations expose one such function each. Each writes CSV under
//!   `target/experiments/` and prints the rows it writes as a table.
//!
//! Thin binaries in `src/bin/` wrap single experiments; the `figures` bench
//! target (`cargo bench -p apc-bench --bench figures`) runs the whole set.
//! This crate reports the paper's *virtual* seconds only; wall-clock
//! performance is measured by the standalone `benchmark/` package
//! (`benchmark/README.md`, `BENCHMARK.json`).
//!
//! Set `APC_THREADS=<n>|auto` to fan the per-block kernels out inside each
//! simulated rank (see [`harness::exec_from_env`]); virtual-time figures
//! are byte-identical under every policy, only wall-clock changes.
//!
//! Set `APC_DATASET=<dir>` to replay a stored `apc-store` dataset
//! (written with the `write_dataset` binary) instead of regenerating the
//! synthetic simulation — rank counts and seed then come from the store's
//! metadata (see [`harness::dataset_from_env`]). Golden fig06–fig11
//! report snapshots live in `tests/golden_reports.rs`; regenerate
//! intentionally-changed fixtures with `APC_UPDATE_GOLDEN=1`.

// The one library crate without the root `deny(clippy::unwrap_used,
// clippy::expect_used, clippy::panic)`: a bench harness, where panicking on
// a bad run or I/O error is the failure mode we want.

pub mod experiments;
pub mod harness;

pub use harness::{exec_from_env, Scale};

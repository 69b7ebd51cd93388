//! The paper's primary contribution: an adaptive, performance-constrained
//! in situ visualization pipeline (Dorier et al., CLUSTER 2016, §IV).
//!
//! Per iteration, on every rank (Fig 2 of the paper):
//!
//! 1. **Score** local blocks with a content metric ([`apc_metrics`]);
//! 2. **Sort** all `<id, score>` pairs globally and share the sorted list
//!    ([`apc_comm::sort`]);
//! 3. **Reduce** the `p%` lowest-scored blocks to their 8 corners
//!    ([`apc_grid::Block::reduce`]);
//! 4. **Redistribute** blocks across ranks — random shuffle or round-robin
//!    by score ([`redistribute`]);
//! 5. **Render** the 45 dBZ isosurface of the held blocks — here, count
//!    its cells and triangles for the render-cost model
//!    ([`apc_render::block_iso_stats`]; nothing is meshed);
//! 6. **Adapt** `p` from the measured pipeline time toward the user's time
//!    budget ([`controller`], the paper's Algorithm 1).
//!
//! The crate exposes each step for unit testing and ablation, a
//! [`Pipeline`] that chains them inside a rank, and an experiment
//! [`driver`] that replays a [`apc_cm1::ReflectivityDataset`] through a
//! virtual-time [`apc_comm::Runtime`]. The driver is a **sweep engine**
//! ([`run_sweep_in_session`]): many [`PipelineConfig`]s replayed over one
//! persistent rank session ([`apc_comm::Session`]), byte-identical to
//! running each configuration over a fresh session, minus the
//! per-configuration thread-spawn cost. [`Prepared`] packages that
//! pattern — input blocks + persistent session — and
//! [`Prepared::from_store`] binds it to a persisted `apc-store` dataset
//! instead, with each rank lazily reading only its own chunks from inside
//! its rank thread.
//!
//! Two **in situ modes** share this machinery ([`InSituMode`] on the
//! config): the paper's time-partitioned pipeline above
//! ([`InSituMode::Synchronous`], executed by [`Pipeline`]), and the
//! space-partitioned dedicated-core mode ([`InSituMode::Staged`],
//! executed by [`staged`] over its generic frame engine): a static
//! subset of ranks stages asynchronously — simulation ranks score, deal
//! and post blocks into bounded queues and continue, staging ranks
//! sort/reduce/render with a per-stager Algorithm 1 controller, and
//! visualization cost reaches the simulation only as queue backpressure
//! ([`BackpressurePolicy`]). The experiment drivers dispatch on the mode,
//! so staged configurations replay through the same sweep engine and
//! [`Prepared`] sessions as synchronous ones. One staged driver runs both
//! staged shapes: [`run_staged_serving_in_session`] is the staged run with
//! client ranks, which the stagers answer between frames ([`serving`]),
//! and [`run_staged_in_session`] is that run without them.
//!
//! The per-block hot loops (steps 1 and 5) run under an intra-rank
//! [`ExecPolicy`] from `apc-par`, re-exported here: `Serial` reproduces
//! the original loops, `Threads(n)` fans them out over scoped worker
//! threads. Virtual-time accounting is summed from per-block counters —
//! never from wall time — so the two policies produce byte-identical
//! [`IterationReport`]s (guarded by the `exec_policy_determinism`
//! integration test); only wall-clock time changes. Experiment drivers
//! clamp the policy so `ranks × threads ≤ cores`
//! ([`ExecPolicy::clamp_for_ranks`]).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod config;
pub mod controller;
pub mod driver;
pub mod pipeline;
pub mod prepared;
pub mod redistribute;
pub mod replay_serving;
pub mod report;
pub mod selection;
pub mod serving;
pub mod staged;

pub use apc_par::{ExecPolicy, RecommendedConcurrency};
pub use apc_serve::{
    percentile, Fidelity, FidelityMix, Frame, FrameReply, FrameRequest, FrameSink, FrameStore,
    RequestLog, ServePolicy, ServeReport, ServerStats,
};
pub use config::{
    BackpressurePolicy, InSituMode, PipelineConfig, Redistribution, SortStrategy, StagedParams,
};
pub use controller::{adapt_percent, BudgetController};
pub use driver::{run_experiment, run_sweep_in_session};
pub use pipeline::Pipeline;
pub use prepared::{spaced_subset, Prepared};
pub use redistribute::WireBlock;
pub use replay_serving::{run_replay_serving_in_session, ReplayRun};
pub use report::IterationReport;
pub use selection::ScoredBlock;
pub use serving::{run_staged_serving_in_session, ServeParams, ServingRun};
pub use staged::{run_staged_in_session, StagedFrame, StagedRun};

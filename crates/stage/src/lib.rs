//! Dedicated-core asynchronous in situ staging — the space-partitioned
//! counterpart of the paper's time-partitioned (synchronous) pipeline.
//!
//! Dorier et al. constrain in situ visualization cost because, run
//! synchronously, every visualization second lands on the simulation's
//! critical path. The same group's Damaris line of work removes that cost
//! differently: dedicate a few cores per node to visualization and let the
//! simulation hand its data over and continue. This crate implements that
//! staging mode on the virtual-time runtime:
//!
//! * [`Partition`] — a static sim:viz split of the rank group (simulation
//!   ranks first, staging ranks last);
//! * [`BackpressurePolicy`] — what happens when the stagers fall behind:
//!   block the producer ([`BackpressurePolicy::Block`]), shed the oldest
//!   queued frame ([`BackpressurePolicy::DropOldest`]), or visualize
//!   backlogged frames at a raised reduction percentage
//!   ([`BackpressurePolicy::DegradeHarder`]);
//! * [`run_staged`] — the SPMD frame engine: simulation ranks produce
//!   frames and post them into bounded per-stager queues
//!   ([`apc_comm::bounded`]), immediately continuing to the next frame;
//!   staging ranks drain the queues and process. Overlap is modeled in
//!   virtual time — a simulation rank's clock only advances beyond its own
//!   work when a full queue makes it wait for a stager's credit.
//!
//! Everything observable is a pure function of virtual timestamps, fixed
//! receive orders and the callers' deterministic closures, so a staged run
//! replays bit-identically regardless of OS scheduling — the same
//! guarantee the synchronous pipeline gives, extended to asynchrony.
//!
//! The crate is generic over the frame payload: `apc-core` plugs the in
//! situ pipeline steps (score / sort / reduce / render and the Algorithm 1
//! controller) into the `produce`/`process` hooks and exposes the result
//! as `InSituMode::Staged` on its `PipelineConfig`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub mod partition;
pub mod policy;

pub use engine::{run_staged, RankLog, SimFrameLog, StageFrameLog, StagedSpec};
pub use partition::{Partition, Role};
pub use policy::BackpressurePolicy;

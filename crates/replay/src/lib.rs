//! Standalone replay serving: the layer that serves *persisted* runs with
//! no live simulation attached.
//!
//! The staged pipeline (`apc-core`) persists every rendered frame through
//! a [`apc_serve::FrameSink`]; the live serving executor can only ship
//! those frames while the producing session is running, each client
//! pinned to the one stager that holds its frames. This crate removes
//! both constraints. A **replay pool** is a set of server ranks that each
//! open the same completed run ([`apc_serve::open_run`], fronted by the
//! per-server [`apc_store::ChunkCache`] of its [`apc_serve::ServeCore`])
//! and answer [`apc_serve::FrameRequest`]s from client ranks — no sim
//! ranks, no stage ranks, any server can answer any request.
//!
//! The pieces, all deterministic and runtime-agnostic:
//!
//! * [`trace`] — recorded, replayable client arrival traces: bursty
//!   Poisson phases, a shifting hot window, and per-client
//!   [`QosTier`]s, generated from a seed ([`ArrivalTrace::generate`]).
//! * [`route`] — [`RouteMode`]: the live pinned coupling, replayed; or
//!   rendezvous-hash routing ([`rendezvous_server`]) that gives every
//!   frame key a stable primary so per-server caches shard the hot set.
//! * [`plan`] — [`PoolPlan::plan`]: a discrete-event simulation over the
//!   recorded trace that decides, ahead of any rank spawning, which
//!   server executes each arrival and in what order — including
//!   virtual-time request stealing (idle server takes the newest queued
//!   request from the most-loaded peer).
//! * [`qos`] — [`resolve`]: tier-aware request resolution over a
//!   completed run (premium: exact or a typed error; free: substitute or
//!   `NotYet`).
//! * [`fixture`] — deterministic synthetic runs ([`synth_run`]) so
//!   suites and benches regenerate their persisted input instead of
//!   shipping artifacts.
//!
//! The SPMD executor that realizes a plan over `apc_comm` endpoints lives
//! in `apc-core` (`core/src/replay_serving.rs`), mirroring how the live
//! serving executor sits above `apc-serve`.

pub mod fixture;
pub mod plan;
pub mod qos;
pub mod route;
pub mod trace;

pub use fixture::{small_run, synth_run};
pub use plan::{Assignment, PoolParams, PoolPlan, ReplayFault, STEAL_OVERHEAD};
pub use qos::{resolve, Resolution};
pub use route::{primary_for, rendezvous_server, route_key, RouteMode};
pub use trace::{Arrival, ArrivalTrace, QosTier, TraceSpec};

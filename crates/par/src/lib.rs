//! Intra-rank data-parallel execution layer.
//!
//! The pipeline's hot loops — block scoring, isosurface extraction,
//! compressor-ratio probes — are embarrassingly parallel over blocks, yet
//! each simulated rank is one OS thread (see `apc-comm`). This crate adds
//! the missing dimension: an [`ExecPolicy`] selects between serial
//! execution and a pool of scoped worker threads *inside* a rank, and
//! [`par_map`] runs a pure per-item kernel under that policy with output
//! order (and therefore every downstream reduction) identical to the
//! serial loop.
//!
//! Design points:
//!
//! * **Determinism first.** [`par_map`] returns results in input order no
//!   matter how work was scheduled, so virtual-clock accounting — which is
//!   summed from per-block counters, never from wall time — is bit-identical
//!   between [`ExecPolicy::Serial`] and [`ExecPolicy::Threads`].
//! * **No external pool.** The backend is `std::thread::scope` with an
//!   atomic work cursor (dynamic chunking), so the crate has zero
//!   dependencies and works offline.
//! * **Thread budgets.** One OS thread per rank already multiplies across
//!   the simulated communicator; [`ExecPolicy::clamp_for_ranks`] caps the
//!   per-rank pool so `ranks × threads ≤ cores` (the interplay rule the
//!   runtime documents).
//! * **Kernel hints.** Kernels advertise a [`RecommendedConcurrency`]
//!   (idiom borrowed from zarrs codecs) so harnesses can pick sensible
//!   defaults per workload instead of a global knob.
//!
//! ```
//! use apc_par::{par_map, ExecPolicy};
//!
//! let squares = par_map(ExecPolicy::Threads(4), &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Identical to the serial loop, by construction:
//! assert_eq!(squares, par_map(ExecPolicy::Serial, &[1, 2, 3, 4], |&x| x * x));
//! ```

pub mod exec;
pub mod rng;

pub use exec::{
    available_cores, par_map, par_map_indexed, thread_budget, ExecPolicy, RecommendedConcurrency,
};
pub use rng::SplitMix64;

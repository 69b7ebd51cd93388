//! A synthetic CM1-like atmospheric simulation substrate.
//!
//! The paper replays a 572-iteration reflectivity dataset produced by a
//! 3-day CM1 (Bryan & Fritsch 2002) run on Blue Waters. Neither CM1 nor the
//! dataset is available here, so this crate builds the closest synthetic
//! equivalent:
//!
//! * [`noise`] — deterministic hash-based 3D value noise / fBm, the
//!   turbulence texture of the storm;
//! * [`storm`] — a procedural supercell: condensate envelope with updraft
//!   core, weak-echo region, hook echo, anvil and flanking cells, evolving
//!   deterministically over iterations;
//! * [`hydro`] — the pointwise CM1-style microphysics law: the split of
//!   condensate into rain / snow / hail mixing ratios at a height and the
//!   radar-reflectivity derivation ("derives from a calculation based on
//!   cloud rain, hail, and snow microphysical variables", paper §II-A);
//! * [`dataset`] — the replayable iteration sequence the experiments feed
//!   to the pipeline, at the paper's two scales (64 and 400 ranks);
//! * [`store`] — persistence through the `apc-store` chunked dataset
//!   ([`write_dataset`] / [`open_dataset`]): write a time series once,
//!   replay it forever, byte-identically under a lossless codec.
//!
//! The property the experiments depend on — and which [`storm`]'s tests
//! pin — is *spatial locality*: the storm covers a small fraction of the
//! domain, so a regular decomposition puts nearly all of the rendering and
//! scoring load on a few ranks.
//!
//! Nothing here runs CM1's compute phase: the paper replays stored data
//! "to avoid running CM1's computational part" (§V-A), and the staged
//! executor charges that phase as `StagedParams::sim_compute` virtual
//! seconds per iteration (`apc-core`).

pub mod dataset;
pub mod hydro;
pub mod noise;
pub mod store;
pub mod storm;

pub use dataset::ReflectivityDataset;
pub use noise::{fbm3, value_noise3};
pub use store::{open_dataset, write_dataset, write_dataset_to, StoredTimeSeries};
pub use storm::StormModel;

/// Reflectivity bounds in dBZ — the known range the ITL metric relies on
/// (paper §IV-B-c).
pub const DBZ_MIN: f32 = -60.0;
pub const DBZ_MAX: f32 = 80.0;

/// The isovalue the paper renders: the 45 dBZ surface whose interior hides
/// the weak echo region (§II-A).
pub const DBZ_ISOVALUE: f32 = 45.0;

//! Block relevance scoring metrics (paper §IV-B).
//!
//! The pipeline's first step gives every block a score measuring how much
//! information it carries for the scientist or the visualization algorithm.
//! No universal metric exists, so the paper ships a toolbox:
//!
//! | paper name | type | this crate |
//! |---|---|---|
//! | RANGE  | statistics          | [`Range`] |
//! | VAR    | statistics          | [`Variance`] |
//! | ITL    | histogram entropy   | [`Entropy`] |
//! | LEA    | bytewise entropy    | [`Lea`] |
//! | FPZIP/ZFP/LZ | compressor ratio | [`CompressionScore`] |
//! | TRILIN | interpolation error | [`Trilin`] |
//!
//! plus the local-entropy variant the paper rejected as too slow
//! ([`LocalEntropy`]) and a multivariate weighted combination
//! ([`WeightedSum`], the future-work item of §VI).
//!
//! Every scorer reports a calibrated per-point virtual compute cost used by
//! the pipeline's clock (see `apc-comm`); the constants reflect *this*
//! implementation's relative kernel speeds, scaled to Blue Waters-core
//! magnitudes so Table I lands in the paper's range.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// VAR's AVX2 dispatch is an `unsafe` call; its `// SAFETY:` line is required.
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod batch;
pub mod combo;
pub mod compressor;
pub mod entropy;
pub mod lea;
pub mod registry;
pub mod statistics;
pub mod trilin;

pub use analysis::{ranks_by_score, spearman};
pub use batch::{score_blocks, BlockScore};
pub use combo::WeightedSum;
pub use compressor::CompressionScore;
pub use entropy::{Entropy, LocalEntropy};
pub use lea::Lea;
pub use registry::{by_name, standard_six};
pub use statistics::{Range, Variance};
pub use trilin::Trilin;

use apc_grid::Dims3;

/// A metric that scores one block of data. Higher scores mean "more
/// relevant — keep this block"; lower scores mark reduction candidates.
///
/// Implementations must be pure (same data ⇒ same score) and independent of
/// other blocks, so scores computed on different ranks are comparable as
/// long as every rank uses the same parameters (the paper's requirement for
/// histogram range/bins, §IV-B-c).
pub trait BlockScorer: Send + Sync {
    /// Name as printed in experiment output (e.g. `"VAR"`).
    fn name(&self) -> &'static str;

    /// Score `data`, an x-fastest array of shape `dims`.
    fn score(&self, data: &[f32], dims: Dims3) -> f64;

    /// Calibrated virtual compute cost per data point (seconds on one
    /// Blue Waters-class core), charged by the pipeline's scoring step.
    fn cost_per_point(&self) -> f64;
}

impl<S: BlockScorer + ?Sized> BlockScorer for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn score(&self, data: &[f32], dims: Dims3) -> f64 {
        (**self).score(data, dims)
    }
    fn cost_per_point(&self) -> f64 {
        (**self).cost_per_point()
    }
}

#[cfg(test)]
pub(crate) mod testdata {
    use apc_grid::Dims3;

    /// Deterministic pseudo-noise in [-amp, amp].
    pub fn noise(n: usize, amp: f32, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as f32 + seed as f32 * 17.0) * 12.9898;
                // `fract` keeps sign in Rust; take abs for a uniform [0,1).
                ((x.sin() * 43758.547).fract().abs() * 2.0 - 1.0) * amp
            })
            .collect()
    }

    /// A smooth gradient block.
    pub fn gradient(dims: Dims3) -> Vec<f32> {
        let mut out = Vec::with_capacity(dims.len());
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    out.push(i as f32 + 0.5 * j as f32 - 0.25 * k as f32);
                }
            }
        }
        out
    }
}

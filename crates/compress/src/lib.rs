//! From-scratch floating-point compressors used as block-scoring metrics.
//!
//! The paper (§IV-B-e) scores blocks by how well floating-point compressors
//! squeeze them: highly compressible ⇒ little information ⇒ low relevance.
//! It uses FPZIP (Lindstrom & Isenburg 2006), ZFP (Lindstrom 2014) and an
//! LZ-based byte compressor. None of those C libraries are available here,
//! so this crate implements the same *family* of algorithms from scratch:
//!
//! * [`fpz`] — a lossless predictive codec: 3D Lorenzo prediction over an
//!   order-preserving integer mapping of IEEE-754 floats, residuals stored
//!   with a significant-bit-count code (fpzip-like);
//! * [`zfpx`] — a fixed-accuracy transform codec: 4×4×4 blocks,
//!   block-floating-point quantization, a reversible integer lifting
//!   transform, and embedded bit-plane coding (zfp-like);
//! * [`lz`] — LZ77 over the raw float bytes with hash-table match search.
//!
//! All codecs implement [`FloatCodec`]; the scoring metric consumes only
//! [`FloatCodec::compressed_ratio`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// fpz's AVX2/BMI2 dispatch is an `unsafe` call; its `// SAFETY:` line is required.
#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod bitio;
pub mod fpz;
pub mod lz;
pub mod zfpx;

pub use fpz::Fpz;
pub use lz::Lz77;
pub use zfpx::Zfpx;

/// Shape of a 3D array, `(nx, ny, nz)`, x-fastest layout. (Deliberately a
/// bare tuple: this crate sits below `apc-grid` in the dependency graph.)
pub type Shape = (usize, usize, usize);

/// `nx · ny · nz`, or `None` when it overflows. A decoder's shape can come
/// out of damaged bytes, so decoders count with this before they size
/// anything from it. A zero axis holds nothing whatever the others say.
pub(crate) fn checked_volume((nx, ny, nz): Shape) -> Option<usize> {
    if nx == 0 || ny == 0 || nz == 0 {
        return Some(0);
    }
    nx.checked_mul(ny)?.checked_mul(nz)
}

/// Errors produced by decoders on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The compressed stream ended prematurely or is inconsistent.
    Corrupt(&'static str),
    /// The supplied shape does not match the data length.
    ShapeMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected} samples, got {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A 3D floating-point codec.
pub trait FloatCodec {
    /// Codec name as used in experiment output (e.g. `"FPZIP"`).
    fn name(&self) -> &'static str;

    /// Compress `data` (shaped `shape`, x-fastest).
    fn encode(&self, data: &[f32], shape: Shape) -> Vec<u8>;

    /// Decompress a stream produced by [`FloatCodec::encode`] with the same
    /// shape.
    fn decode(&self, stream: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError>;

    /// Compressed size over original size — the quantity the scoring metric
    /// uses (higher ⇒ less compressible ⇒ more information).
    fn compressed_ratio(&self, data: &[f32], shape: Shape) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let compressed = self.encode(data, shape).len();
        compressed as f64 / std::mem::size_of_val(data) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_empty_is_zero() {
        assert_eq!(Fpz.compressed_ratio(&[], (0, 0, 0)), 0.0);
    }

    #[test]
    fn constant_data_compresses_better_than_noise() {
        let shape = (8, 8, 8);
        let n = 512;
        let constant = vec![1.25f32; n];
        let noise: Vec<f32> = (0..n)
            .map(|i| ((i as f32 * 12.9898).sin() * 43758.547).fract())
            .collect();
        for codec in [&Fpz as &dyn FloatCodec, &Zfpx::default(), &Lz77] {
            let rc = codec.compressed_ratio(&constant, shape);
            let rn = codec.compressed_ratio(&noise, shape);
            assert!(
                rc < rn,
                "{}: constant ratio {rc} should beat noise ratio {rn}",
                codec.name()
            );
        }
    }
}

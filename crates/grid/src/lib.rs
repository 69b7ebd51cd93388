//! 3D rectilinear grids, domain decomposition and block management.
//!
//! This crate provides the spatial substrate of the in situ visualization
//! pipeline from Dorier et al. (CLUSTER 2016):
//!
//! * [`Dims3`] / [`Extent3`] — index-space shapes and boxes;
//! * [`Field3`] — a dense 3D array of `f32` samples (x-fastest layout);
//! * [`RectilinearCoords`] — per-axis physical coordinates, optionally
//!   stretched near the domain border like CM1's grid;
//! * [`DomainDecomp`] — the regular *domain → subdomain → block*
//!   decomposition the paper assumes (constant block size, constant number
//!   of blocks per process);
//! * [`Block`] / [`BlockData`] — a scored/renderable unit of data, either
//!   `Full` or `Reduced` to its 8 corner values (paper §IV-C);
//! * [`interp`] — trilinear interpolation and the reconstruction used both
//!   by the TRILIN scoring metric and by rendering of reduced blocks.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod block;
pub mod coords;
pub mod decomp;
pub mod dims;
pub mod field;
pub mod interp;

pub use block::{Block, BlockData, BlockId};
pub use coords::RectilinearCoords;
pub use decomp::{DomainDecomp, ProcGrid};
pub use dims::{Dims3, Extent3};
pub use field::Field3;

/// Errors produced by grid construction and decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A dimension was zero.
    ZeroDim,
    /// Domain dimensions are not divisible by the process grid.
    IndivisibleProcs {
        domain: Dims3,
        procs: (usize, usize, usize),
    },
    /// Subdomain dimensions are not divisible by the block dimensions.
    IndivisibleBlocks { subdomain: Dims3, block: Dims3 },
    /// An extent falls outside the field it refers to.
    OutOfBounds,
    /// A data buffer does not match the advertised dimensions.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::ZeroDim => write!(f, "dimension must be non-zero"),
            GridError::IndivisibleProcs { domain, procs } => write!(
                f,
                "domain {domain} not divisible by process grid {}x{}x{}",
                procs.0, procs.1, procs.2
            ),
            GridError::IndivisibleBlocks { subdomain, block } => {
                write!(
                    f,
                    "subdomain {subdomain} not divisible by block size {block}"
                )
            }
            GridError::OutOfBounds => write!(f, "extent out of bounds"),
            GridError::LengthMismatch { expected, got } => {
                write!(f, "buffer length {got} does not match dims ({expected})")
            }
        }
    }
}

impl std::error::Error for GridError {}

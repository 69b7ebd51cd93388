//! Blocks: the unit of scoring, reduction and redistribution.

use std::sync::Arc;

use crate::interp::{corners_of, reconstruct_from_corners, resample_trilinear, sample_indices};
use crate::{Dims3, Extent3, Field3, GridError};

/// Global identifier of a block (linear index in the global block grid).
pub type BlockId = u32;

/// Payload of a block: the full sample array, the 8 corner values kept by
/// the paper's reduction step (55×55×38 → 2×2×2, §IV-C), or a general
/// k×k×k sample lattice (the "more elaborate downsampling strategies" the
/// paper leaves as future work).
#[derive(Debug, Clone, PartialEq)]
pub enum BlockData {
    /// All samples, x-fastest layout of the block's extent. Immutable and
    /// shared: cloning a full block, moving it between ranks or handing it
    /// out of the store's chunk cache is a refcount, never a sample copy.
    Full(Arc<[f32]>),
    /// Only the 8 corners, in [`crate::interp::trilinear`] corner order.
    Reduced([f32; 8]),
    /// A coarse sample lattice of shape `dims` (each axis ≥ 2 points, first
    /// and last on the block boundary so neighbors stay connected).
    Sampled { dims: Dims3, values: Vec<f32> },
}

impl BlockData {
    /// Payload size in bytes, as counted by the communication model.
    pub fn nbytes(&self) -> usize {
        match self {
            BlockData::Full(v) => v.len() * std::mem::size_of::<f32>(),
            BlockData::Reduced(_) => 8 * std::mem::size_of::<f32>(),
            BlockData::Sampled { values, .. } => values.len() * std::mem::size_of::<f32>(),
        }
    }

    /// Whether the payload is smaller than the full sample array.
    pub fn is_reduced(&self) -> bool {
        !matches!(self, BlockData::Full(_))
    }
}

/// A block of data: its id, its point extent within the global domain, and
/// its (possibly reduced) payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub id: BlockId,
    pub extent: Extent3,
    pub data: BlockData,
}

impl Block {
    /// Extract a full block from a domain-global field.
    pub fn from_field(id: BlockId, extent: Extent3, field: &Field3) -> Result<Self, GridError> {
        Ok(Self {
            id,
            extent,
            data: BlockData::Full(field.extract_shared(extent)?),
        })
    }

    /// Shape of the block's extent (the *logical* shape; a reduced block
    /// still reports its original extent so neighbors stay connected).
    pub fn dims(&self) -> Dims3 {
        self.extent.dims()
    }

    pub fn is_reduced(&self) -> bool {
        self.data.is_reduced()
    }

    pub fn nbytes(&self) -> usize {
        self.data.nbytes()
    }

    /// Reduce in place to the 8 corner values. Keeping two points per axis
    /// retains the block's extents and continuity with neighboring blocks
    /// (paper §IV-C). Idempotent.
    pub fn reduce(&mut self) {
        if let BlockData::Full(data) = &self.data {
            let corners = corners_of(data, self.dims());
            self.data = BlockData::Reduced(corners);
        }
    }

    /// A reduced copy of this block.
    pub fn reduced(&self) -> Block {
        let mut b = self.clone();
        b.reduce();
        b
    }

    /// Downsample in place to a `keep × keep × keep` lattice (clamped to
    /// the block's own dims). `keep == 2` is exactly [`Block::reduce`];
    /// larger lattices trade bytes for fidelity — the reduction-size
    /// ablation. No-op on already-reduced data.
    pub fn downsample(&mut self, keep: usize) {
        assert!(
            keep >= 2,
            "keep at least two points per axis for continuity"
        );
        if keep == 2 {
            self.reduce();
            return;
        }
        if let BlockData::Full(data) = &self.data {
            let d = self.dims();
            let (ix, iy, iz) = (
                sample_indices(d.nx, keep),
                sample_indices(d.ny, keep),
                sample_indices(d.nz, keep),
            );
            let cd = Dims3::new(ix.len(), iy.len(), iz.len());
            let mut values = Vec::with_capacity(cd.len());
            for &k in &iz {
                for &j in &iy {
                    for &i in &ix {
                        values.push(data[d.idx(i, j, k)]);
                    }
                }
            }
            self.data = BlockData::Sampled { dims: cd, values };
        }
    }

    /// A downsampled copy of this block.
    pub fn downsampled(&self, keep: usize) -> Block {
        let mut b = self.clone();
        b.downsample(keep);
        b
    }

    /// The full sample array: the original data for a full block, or the
    /// trilinear reconstruction for a reduced/downsampled one (what a
    /// visualization algorithm rebuilds, paper §IV-C).
    pub fn samples(&self) -> std::borrow::Cow<'_, [f32]> {
        match &self.data {
            BlockData::Full(v) => std::borrow::Cow::Borrowed(v),
            BlockData::Reduced(c) => {
                std::borrow::Cow::Owned(reconstruct_from_corners(c, self.dims()))
            }
            BlockData::Sampled { dims, values } => {
                std::borrow::Cow::Owned(resample_trilinear(values, *dims, self.dims()))
            }
        }
    }

    /// The corner values of the block (extracted for full blocks).
    pub fn corners(&self) -> [f32; 8] {
        match &self.data {
            BlockData::Full(v) => corners_of(v, self.dims()),
            BlockData::Reduced(c) => *c,
            BlockData::Sampled { dims, values } => corners_of(values, *dims),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        let dims = Dims3::new(5, 4, 3);
        let field = Field3::from_fn(dims, |i, j, k| (i * 100 + j * 10 + k) as f32);
        Block::from_field(7, Extent3::new((0, 0, 0), (5, 4, 3)), &field).unwrap()
    }

    #[test]
    fn reduce_keeps_corners_and_extent() {
        let b = sample_block();
        let original_corners = b.corners();
        let r = b.reduced();
        assert!(r.is_reduced());
        assert_eq!(r.extent, b.extent);
        assert_eq!(r.dims(), b.dims());
        assert_eq!(r.corners(), original_corners);
        assert_eq!(r.nbytes(), 32);
        assert_eq!(b.nbytes(), 5 * 4 * 3 * 4);
    }

    #[test]
    fn reduce_is_idempotent() {
        let mut b = sample_block();
        b.reduce();
        let once = b.clone();
        b.reduce();
        assert_eq!(b, once);
    }

    #[test]
    fn reduced_samples_match_at_corners() {
        let b = sample_block();
        let r = b.reduced();
        let full = b.samples();
        let rec = r.samples();
        let d = b.dims();
        for dz in 0..2usize {
            for dy in 0..2usize {
                for dx in 0..2usize {
                    let idx = d.idx(dx * (d.nx - 1), dy * (d.ny - 1), dz * (d.nz - 1));
                    assert!((full[idx] - rec[idx]).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn downsample_keeps_extent_and_shrinks_payload() {
        let b = sample_block(); // 5x4x3
        let d3 = b.downsampled(3);
        assert!(d3.is_reduced());
        assert_eq!(d3.extent, b.extent);
        match &d3.data {
            BlockData::Sampled { dims, values } => {
                assert_eq!(*dims, Dims3::new(3, 3, 3));
                assert_eq!(values.len(), 27);
            }
            other => panic!("expected Sampled, got {other:?}"),
        }
        assert!(d3.nbytes() < b.nbytes());
        assert!(d3.nbytes() > b.reduced().nbytes());
    }

    #[test]
    fn downsample_two_is_reduce() {
        let b = sample_block();
        assert_eq!(b.downsampled(2), b.reduced());
    }

    #[test]
    fn downsample_keeps_corners() {
        let b = sample_block();
        for keep in [2usize, 3, 4] {
            assert_eq!(b.downsampled(keep).corners(), b.corners(), "keep = {keep}");
        }
    }

    #[test]
    fn finer_lattice_reconstructs_better() {
        // A wavy block: 4^3 lattice must beat corners on MSE.
        let dims = Dims3::new(9, 9, 9);
        let field = Field3::from_fn(dims, |i, j, k| {
            ((i as f32 * 0.9).sin() + (j as f32 * 0.7).cos()) * 10.0 + k as f32
        });
        let b = Block::from_field(0, Extent3::new((0, 0, 0), (9, 9, 9)), &field).unwrap();
        let mse = |keep: usize| -> f64 {
            let rec = b.downsampled(keep).samples().to_vec();
            b.samples()
                .iter()
                .zip(&rec)
                .map(|(a, r)| ((a - r) as f64).powi(2))
                .sum::<f64>()
                / rec.len() as f64
        };
        assert!(mse(4) < mse(2), "4^3: {} vs corners: {}", mse(4), mse(2));
    }

    #[test]
    fn downsample_is_noop_on_reduced() {
        let mut b = sample_block().reduced();
        let before = b.clone();
        b.downsample(4);
        assert_eq!(b, before);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn downsample_rejects_singleton() {
        let mut b = sample_block();
        b.downsample(1);
    }
}

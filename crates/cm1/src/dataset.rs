//! The replayable reflectivity dataset the experiments feed to the
//! pipeline.
//!
//! Mirrors the paper's setup (§V-A): a 572-iteration timeline of a
//! 2200×2200×380 reflectivity field decomposed over 64 or 400 ranks with
//! 55×55×38-point blocks (16,000 blocks). Our default experiments run the
//! 1:5-per-axis scale — 440×440×76 with 11×11×19 blocks, 6,400 blocks —
//! whose byte counts the virtual network scales back up by 125; the
//! full-size decomposition is available for anyone with the memory budget.

use apc_grid::{
    Block, BlockId, Dims3, DomainDecomp, Field3, GridError, ProcGrid, RectilinearCoords,
};

use crate::storm::StormModel;

/// A deterministic, lazily-generated reflectivity timeline bound to a
/// domain decomposition.
#[derive(Debug, Clone)]
pub struct ReflectivityDataset {
    decomp: DomainDecomp,
    coords: RectilinearCoords,
    storm: StormModel,
}

impl ReflectivityDataset {
    /// Build with explicit decomposition and storm model. The coordinate
    /// axes get the CM1-style stretched border (§II-A).
    pub fn new(decomp: DomainDecomp, storm: StormModel) -> Self {
        let coords = RectilinearCoords::stretched(decomp.domain(), 1.0, 8, 1.12);
        Self {
            decomp,
            coords,
            storm,
        }
    }

    /// The paper's experiment geometry at 1:5 scale: 440×440×76 domain,
    /// 11×11×19 blocks (6,400 of them), `nranks` ∈ {64, 400} (or any count
    /// whose auto 2D grid divides 440×440).
    pub fn paper_scaled(nranks: usize, seed: u64) -> Result<Self, GridError> {
        let domain = Dims3::new(440, 440, 76);
        let block = Dims3::new(11, 11, 19);
        let decomp = DomainDecomp::new(domain, ProcGrid::auto2d(nranks), block)?;
        Ok(Self::new(decomp, StormModel::new(seed)))
    }

    /// The paper's full-size geometry (2200×2200×380, 55×55×38 blocks,
    /// 16,000 blocks). ~7.4 GB per iteration as `f32` — bench-cluster
    /// territory, provided for completeness.
    pub fn paper_full(nranks: usize, seed: u64) -> Result<Self, GridError> {
        let domain = Dims3::new(2200, 2200, 380);
        let block = Dims3::new(55, 55, 38);
        let decomp = DomainDecomp::new(domain, ProcGrid::auto2d(nranks), block)?;
        Ok(Self::new(decomp, StormModel::new(seed)))
    }

    /// A small geometry for unit tests: 80×80×16 domain, 10×10×8 blocks,
    /// 128 blocks. `nranks` must tile 8×8×2 blocks (1, 4, 16 work).
    pub fn tiny(nranks: usize, seed: u64) -> Result<Self, GridError> {
        let domain = Dims3::new(80, 80, 16);
        let block = Dims3::new(10, 10, 8);
        let decomp = DomainDecomp::new(domain, ProcGrid::auto2d(nranks), block)?;
        Ok(Self::new(decomp, StormModel::new(seed)))
    }

    pub fn decomp(&self) -> &DomainDecomp {
        &self.decomp
    }

    pub fn coords(&self) -> &RectilinearCoords {
        &self.coords
    }

    pub fn storm(&self) -> &StormModel {
        &self.storm
    }

    /// Total iterations in the timeline.
    pub fn n_iterations(&self) -> usize {
        self.storm.n_iterations
    }

    /// `n` iteration indices equally spaced through the timeline, starting
    /// after spin-up — the paper uses 10 for component experiments and 30
    /// for the adaptation runs, "starting after approximately 5,000
    /// iterations of the simulation".
    pub fn sample_iterations(&self, n: usize) -> Vec<usize> {
        let total = self.n_iterations();
        let start = total / 10; // skip spin-up
        if n == 0 || total == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![start];
        }
        (0..n)
            .map(|i| start + i * (total - 1 - start) / (n - 1))
            .collect()
    }

    /// The whole-domain field at `iteration` (examples / image rendering).
    pub fn field(&self, iteration: usize) -> Field3 {
        self.storm.reflectivity(&self.coords, iteration)
    }

    /// One rank's subdomain field, generated directly on the subdomain's
    /// extent (what a real CM1 rank would hand the in situ library).
    pub fn rank_field(&self, iteration: usize, rank: usize) -> Field3 {
        let ext = self.decomp.subdomain_extent(rank);
        self.storm
            .reflectivity_on(&self.coords, ext.lo, ext.dims(), iteration)
    }

    /// One rank's blocks at `iteration`, in the decomposition's block
    /// order — the pipeline's per-iteration input.
    pub fn rank_blocks(&self, iteration: usize, rank: usize) -> Vec<Block> {
        let sub = self.decomp.subdomain_extent(rank);
        let field = self.rank_field(iteration, rank);
        self.decomp
            .blocks_of_rank(rank)
            .into_iter()
            .map(|id| {
                let ext = self.decomp.block_extent(id);
                // Re-base the block extent into subdomain-local indices.
                let local = apc_grid::Extent3::new(
                    (
                        ext.lo.0 - sub.lo.0,
                        ext.lo.1 - sub.lo.1,
                        ext.lo.2 - sub.lo.2,
                    ),
                    (
                        ext.hi.0 - sub.lo.0,
                        ext.hi.1 - sub.lo.1,
                        ext.hi.2 - sub.lo.2,
                    ),
                );
                #[expect(
                    clippy::expect_used,
                    reason = "block extents are produced by partitioning this same subdomain"
                )]
                let block = Block::from_field(id, local, &field).expect("block inside subdomain");
                Block {
                    extent: ext,
                    ..block
                }
            })
            .collect()
    }

    /// A single block's data (used by scoring harnesses that don't need the
    /// whole subdomain).
    pub fn block(&self, iteration: usize, id: BlockId) -> Block {
        let ext = self.decomp.block_extent(id);
        let field = self
            .storm
            .reflectivity_on(&self.coords, ext.lo, ext.dims(), iteration);
        Block {
            id,
            extent: ext,
            data: apc_grid::BlockData::Full(field.into_vec().into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_grid::Extent3;

    #[test]
    fn paper_scaled_counts() {
        let ds = ReflectivityDataset::paper_scaled(64, 1).unwrap();
        assert_eq!(ds.decomp().n_blocks(), 6400);
        assert_eq!(ds.decomp().blocks_of_rank(0).len(), 100);
        let ds = ReflectivityDataset::paper_scaled(400, 1).unwrap();
        assert_eq!(ds.decomp().n_blocks(), 6400);
        assert_eq!(ds.decomp().blocks_of_rank(0).len(), 16);
    }

    #[test]
    fn tiny_counts() {
        let ds = ReflectivityDataset::tiny(4, 1).unwrap();
        assert_eq!(ds.decomp().n_blocks(), 128);
        assert_eq!(ds.decomp().blocks_of_rank(0).len(), 32);
    }

    #[test]
    fn sample_iterations_spacing() {
        let ds = ReflectivityDataset::tiny(4, 1).unwrap();
        let iters = ds.sample_iterations(10);
        assert_eq!(iters.len(), 10);
        assert!(iters.windows(2).all(|w| w[1] > w[0]));
        assert!(*iters.last().unwrap() < ds.n_iterations());
        assert_eq!(ds.sample_iterations(1).len(), 1);
        assert!(ds.sample_iterations(0).is_empty());
    }

    #[test]
    fn an_empty_timeline_has_no_sample_iterations() {
        // `n_iterations` is a public field; zero used to underflow.
        let storm = StormModel {
            n_iterations: 0,
            ..StormModel::new(1)
        };
        let decomp = *ReflectivityDataset::tiny(4, 1).unwrap().decomp();
        let ds = ReflectivityDataset::new(decomp, storm);
        for n in [0, 1, 2, 10] {
            assert!(ds.sample_iterations(n).is_empty());
        }
    }

    #[test]
    fn rank_fields_tile_the_domain() {
        let ds = ReflectivityDataset::tiny(4, 7).unwrap();
        let full = ds.field(200);
        for rank in 0..4 {
            let sub = ds.rank_field(200, rank);
            let ext = ds.decomp().subdomain_extent(rank);
            // Spot-check a few points.
            for &(i, j, k) in &[
                (0, 0, 0),
                (3, 5, 7),
                (9, 9, 9).min((ext.dims().nx - 1, ext.dims().ny - 1, ext.dims().nz - 1)),
            ] {
                assert_eq!(
                    sub.get(i, j, k),
                    full.get(ext.lo.0 + i, ext.lo.1 + j, ext.lo.2 + k),
                    "rank {rank} point ({i},{j},{k})"
                );
            }
        }
    }

    #[test]
    fn rank_blocks_cover_rank_ids() {
        let ds = ReflectivityDataset::tiny(4, 7).unwrap();
        for rank in 0..4 {
            let blocks = ds.rank_blocks(100, rank);
            let expect = ds.decomp().blocks_of_rank(rank);
            assert_eq!(blocks.len(), expect.len());
            for (b, id) in blocks.iter().zip(expect) {
                assert_eq!(b.id, id);
                assert_eq!(b.extent, ds.decomp().block_extent(id));
                assert!(!b.is_reduced());
            }
        }
    }

    #[test]
    fn block_matches_rank_blocks() {
        let ds = ReflectivityDataset::tiny(4, 7).unwrap();
        let via_rank = &ds.rank_blocks(100, 1)[3];
        let direct = ds.block(100, via_rank.id);
        assert_eq!(direct, *via_rank);
    }

    #[test]
    fn a_block_has_the_same_bits_however_it_is_generated() {
        // On its own 11×11×19 box, cut from its rank's 55×55×76 subdomain,
        // and cut from the rows `field(it)` makes for it (the domain-wide
        // slab over the block's y and z; the other rows of the 14.7 Mpt
        // field share no state with these): the generator's rows start at
        // three different x for the same samples.
        let ds = ReflectivityDataset::paper_scaled(64, 3).unwrap();
        let it = ds.sample_iterations(6)[2];
        // Rank 27 sits under the storm's core, rank 7 in clear air.
        for (rank, stormy) in [(27, true), (7, false)] {
            let blocks = ds.rank_blocks(it, rank);
            let peak = |b: &Block| b.samples().iter().copied().fold(f32::MIN, f32::max);
            let pick = blocks
                .iter()
                .max_by(|a, b| peak(a).total_cmp(&peak(b)))
                .unwrap();
            assert_eq!(peak(pick) > crate::DBZ_ISOVALUE, stormy, "rank {rank}");
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let via_rank = bits(&pick.samples());
            assert_eq!(bits(&ds.block(it, pick.id).samples()), via_rank);
            let ext = pick.extent;
            let slab = ds.storm().reflectivity_on(
                ds.coords(),
                (0, ext.lo.1, ext.lo.2),
                Dims3::new(ds.decomp().domain().nx, ext.dims().ny, ext.dims().nz),
                it,
            );
            let in_slab = Extent3::new((ext.lo.0, 0, 0), (ext.hi.0, ext.dims().ny, ext.dims().nz));
            assert_eq!(bits(&slab.extract(in_slab).unwrap()), via_rank);
        }
    }

    #[test]
    fn load_is_imbalanced_across_ranks() {
        // The premise of §II-B: blocks containing the storm cluster on few
        // ranks. Count per-rank points above the isovalue.
        let ds = ReflectivityDataset::tiny(16, 1).unwrap();
        let iter = ds.sample_iterations(10)[5];
        let mut per_rank = Vec::new();
        for rank in 0..16 {
            let f = ds.rank_field(iter, rank);
            let hot = f
                .as_slice()
                .iter()
                .filter(|&&v| v > crate::DBZ_ISOVALUE)
                .count();
            per_rank.push(hot);
        }
        let max = *per_rank.iter().max().unwrap() as f64;
        let mean = per_rank.iter().sum::<usize>() as f64 / 16.0;
        assert!(max > 0.0, "someone must hold the storm");
        assert!(
            max / mean.max(1.0) > 3.0,
            "imbalance expected: per-rank hot counts {per_rank:?}"
        );
    }
}

//! Regular *domain → subdomain → block* decomposition (paper §IV-A).
//!
//! The paper assumes: the domain is a fixed 3D grid; each process owns one
//! subdomain; every subdomain is split into the same number of equally-sized
//! blocks. Blocks are the unit of scoring, reduction and redistribution.

use crate::{BlockId, Dims3, Extent3, GridError};

/// Shape of the process grid. Rank layout follows the same x-fastest
/// convention as point indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcGrid {
    pub px: usize,
    pub py: usize,
    pub pz: usize,
}

impl ProcGrid {
    pub const fn new(px: usize, py: usize, pz: usize) -> Self {
        Self { px, py, pz }
    }

    /// Number of ranks.
    pub const fn nranks(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Factor `nranks` into a near-square horizontal `px × py × 1` grid, the
    /// usual decomposition for atmospheric models (columns are not split
    /// vertically). Picks the divisor pair with the smallest aspect ratio.
    pub fn auto2d(nranks: usize) -> Self {
        assert!(nranks > 0, "nranks must be positive");
        let mut best = (1, nranks);
        let mut d = 1;
        while d * d <= nranks {
            if nranks.is_multiple_of(d) {
                best = (d, nranks / d);
            }
            d += 1;
        }
        Self {
            px: best.1,
            py: best.0,
            pz: 1,
        }
    }

    #[inline]
    pub fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.nranks());
        (
            rank % self.px,
            (rank / self.px) % self.py,
            rank / (self.px * self.py),
        )
    }
}

/// The full decomposition: domain dims, process grid and block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainDecomp {
    domain: Dims3,
    procs: ProcGrid,
    block: Dims3,
    /// Points per subdomain.
    sub: Dims3,
    /// Blocks per subdomain (per axis).
    blocks_per_sub: Dims3,
    /// Blocks over the whole domain (per axis).
    global_blocks: Dims3,
}

impl DomainDecomp {
    /// Validates exact divisibility: domain by process grid, subdomain by
    /// block size — the constant-size, constant-count invariant of §IV-A.
    pub fn new(domain: Dims3, procs: ProcGrid, block: Dims3) -> Result<Self, GridError> {
        if domain.is_empty() || block.is_empty() || procs.nranks() == 0 {
            return Err(GridError::ZeroDim);
        }
        let sub = domain
            .exact_div(Dims3::new(procs.px, procs.py, procs.pz))
            .ok_or(GridError::IndivisibleProcs {
                domain,
                procs: (procs.px, procs.py, procs.pz),
            })?;
        let blocks_per_sub = sub.exact_div(block).ok_or(GridError::IndivisibleBlocks {
            subdomain: sub,
            block,
        })?;
        let global_blocks = Dims3::new(
            blocks_per_sub.nx * procs.px,
            blocks_per_sub.ny * procs.py,
            blocks_per_sub.nz * procs.pz,
        );
        Ok(Self {
            domain,
            procs,
            block,
            sub,
            blocks_per_sub,
            global_blocks,
        })
    }

    pub fn domain(&self) -> Dims3 {
        self.domain
    }

    pub fn procs(&self) -> ProcGrid {
        self.procs
    }

    pub fn block_dims(&self) -> Dims3 {
        self.block
    }

    pub fn nranks(&self) -> usize {
        self.procs.nranks()
    }

    /// Total number of blocks in the domain.
    pub fn n_blocks(&self) -> usize {
        self.global_blocks.len()
    }

    /// Shape of the global block grid.
    pub fn global_block_grid(&self) -> Dims3 {
        self.global_blocks
    }

    /// Point extent of `rank`'s subdomain within the domain.
    pub fn subdomain_extent(&self, rank: usize) -> Extent3 {
        let (cx, cy, cz) = self.procs.coords_of(rank);
        let lo = (cx * self.sub.nx, cy * self.sub.ny, cz * self.sub.nz);
        Extent3::new(
            lo,
            (lo.0 + self.sub.nx, lo.1 + self.sub.ny, lo.2 + self.sub.nz),
        )
    }

    /// Global block-grid coordinates of a block.
    #[inline]
    pub fn block_coords(&self, id: BlockId) -> (usize, usize, usize) {
        self.global_blocks.coords_of(id as usize)
    }

    /// Block id at global block-grid coordinates.
    #[inline]
    pub fn block_id_at(&self, c: (usize, usize, usize)) -> BlockId {
        self.global_blocks.idx(c.0, c.1, c.2) as BlockId
    }

    /// Point extent of a block within the domain.
    pub fn block_extent(&self, id: BlockId) -> Extent3 {
        let (bi, bj, bk) = self.block_coords(id);
        let lo = (bi * self.block.nx, bj * self.block.ny, bk * self.block.nz);
        Extent3::new(
            lo,
            (
                lo.0 + self.block.nx,
                lo.1 + self.block.ny,
                lo.2 + self.block.nz,
            ),
        )
    }

    /// Ids of the blocks originally produced by `rank`, in layout order.
    pub fn blocks_of_rank(&self, rank: usize) -> Vec<BlockId> {
        let (cx, cy, cz) = self.procs.coords_of(rank);
        let b = self.blocks_per_sub;
        let mut out = Vec::with_capacity(b.len());
        for k in 0..b.nz {
            for j in 0..b.ny {
                for i in 0..b.nx {
                    out.push(self.block_id_at((cx * b.nx + i, cy * b.ny + j, cz * b.nz + k)));
                }
            }
        }
        out
    }

    /// All block ids in the domain, in layout order.
    pub fn all_blocks(&self) -> impl Iterator<Item = BlockId> {
        0..self.n_blocks() as BlockId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_scaled() -> DomainDecomp {
        // 1:5 scale of the paper: 440x440x76 domain, 11x11x19 blocks, 64 ranks.
        DomainDecomp::new(
            Dims3::new(440, 440, 76),
            ProcGrid::new(8, 8, 1),
            Dims3::new(11, 11, 19),
        )
        .unwrap()
    }

    #[test]
    fn auto2d_factors() {
        assert_eq!(ProcGrid::auto2d(64), ProcGrid::new(8, 8, 1));
        assert_eq!(ProcGrid::auto2d(400), ProcGrid::new(20, 20, 1));
        assert_eq!(ProcGrid::auto2d(12), ProcGrid::new(4, 3, 1));
        assert_eq!(ProcGrid::auto2d(1), ProcGrid::new(1, 1, 1));
        assert_eq!(ProcGrid::auto2d(7), ProcGrid::new(7, 1, 1));
    }

    #[test]
    fn rank_coords_roundtrip() {
        let p = ProcGrid::new(4, 3, 2);
        for r in 0..p.nranks() {
            // Ranks are laid out x-fastest.
            let (x, y, z) = p.coords_of(r);
            assert!(x < 4 && y < 3 && z < 2);
            assert_eq!(x + 4 * (y + 3 * z), r);
        }
    }

    #[test]
    fn counts_match_paper_scaling() {
        let d = paper_scaled();
        assert_eq!(d.nranks(), 64);
        assert_eq!(d.subdomain_extent(0).dims(), Dims3::new(55, 55, 76));
        assert_eq!(d.blocks_of_rank(0).len(), 5 * 5 * 4);
        assert_eq!(d.n_blocks(), 6400);
        assert_eq!(d.global_block_grid(), Dims3::new(40, 40, 4));
    }

    #[test]
    fn divisibility_is_enforced() {
        let err = DomainDecomp::new(
            Dims3::new(100, 100, 10),
            ProcGrid::new(3, 1, 1),
            Dims3::new(10, 10, 10),
        );
        assert!(matches!(err, Err(GridError::IndivisibleProcs { .. })));
        let err = DomainDecomp::new(
            Dims3::new(100, 100, 10),
            ProcGrid::new(2, 2, 1),
            Dims3::new(7, 10, 10),
        );
        assert!(matches!(err, Err(GridError::IndivisibleBlocks { .. })));
    }

    #[test]
    fn block_ownership_partitions_domain() {
        let d = paper_scaled();
        let mut seen = vec![false; d.n_blocks()];
        for rank in 0..d.nranks() {
            let blocks = d.blocks_of_rank(rank);
            assert_eq!(blocks.len(), d.n_blocks() / d.nranks());
            for id in blocks {
                // The block lies in the rank's own subdomain.
                let (bi, bj, bk) = d.block_coords(id);
                assert_eq!(
                    (
                        bi / d.blocks_per_sub.nx,
                        bj / d.blocks_per_sub.ny,
                        bk / d.blocks_per_sub.nz
                    ),
                    d.procs.coords_of(rank),
                    "block {id}"
                );
                assert!(!seen[id as usize], "block {id} owned twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn block_extents_tile_subdomain() {
        let d = paper_scaled();
        let rank = 9;
        let sub = d.subdomain_extent(rank);
        let mut covered = 0;
        for id in d.blocks_of_rank(rank) {
            let e = d.block_extent(id);
            let last = (e.hi.0 - 1, e.hi.1 - 1, e.hi.2 - 1);
            assert!(
                sub.contains(e.lo) && sub.contains(last),
                "block {id} extent {e} outside subdomain {sub}"
            );
            covered += e.len();
        }
        assert_eq!(covered, sub.len());
    }

    #[test]
    fn block_extent_dims_constant() {
        let d = paper_scaled();
        for id in d.all_blocks().step_by(97) {
            assert_eq!(d.block_extent(id).dims(), Dims3::new(11, 11, 19));
        }
    }
}

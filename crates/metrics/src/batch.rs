//! Parallel batch scoring: evaluate one metric over a rank's whole block
//! set under an [`ExecPolicy`].
//!
//! Scoring is the pipeline's first hot loop (paper Table I: up to seconds
//! per iteration for TRILIN/ITL-class metrics). Every [`BlockScorer`] is
//! pure and `Send + Sync`, so the per-block evaluations are independent;
//! [`score_blocks`] fans them out with [`apc_par::par_map`] and returns
//! results in block order, which keeps the pipeline's virtual-time
//! accounting (summed from the returned per-block point counts) identical
//! under every policy.

use apc_grid::{Block, BlockId};
use apc_par::{par_map, ExecPolicy, RecommendedConcurrency};

use crate::BlockScorer;

/// One block's scoring result: the score plus the number of sample points
/// evaluated (what the virtual clock charges for).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockScore {
    pub id: BlockId,
    pub score: f64,
    pub points: usize,
}

/// How much parallelism block scoring can use: one worker per handful of
/// blocks (a paper-scale rank holds 100 blocks at 64 ranks and 16 at 400; a
/// worker per ~8 keeps fan-out overhead below the cheapest metric's kernel
/// time).
pub fn recommended_concurrency(nblocks: usize) -> RecommendedConcurrency {
    RecommendedConcurrency::per_items(nblocks, 8)
}

/// Score every block with `scorer` under `policy`; results come back in
/// input order, and every policy yields the same bits.
pub fn score_blocks(
    scorer: &dyn BlockScorer,
    blocks: &[Block],
    policy: ExecPolicy,
) -> Vec<BlockScore> {
    let policy = policy.for_kernel(recommended_concurrency(blocks.len()));
    par_map(policy, blocks, |b| {
        let samples = b.samples();
        BlockScore {
            id: b.id,
            score: scorer.score(&samples, b.dims()),
            points: samples.len(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_grid::{Dims3, Extent3, Field3};

    fn blocks(n: usize) -> Vec<Block> {
        let dims = Dims3::new(6, 6, 6);
        (0..n)
            .map(|i| {
                let data: Vec<f32> = (0..dims.len())
                    .map(|j| ((i * dims.len() + j) as f32 * 0.37).sin() * 30.0)
                    .collect();
                let field = Field3::from_vec(dims, data).unwrap();
                Block::from_field(i as BlockId, Extent3::new((0, 0, 0), (6, 6, 6)), &field).unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_scores_match_serial_bitwise() {
        let blocks = blocks(24);
        for name in ["VAR", "LEA", "FPZIP", "TRILIN"] {
            let scorer = crate::by_name(name).unwrap();
            let serial = score_blocks(scorer.as_ref(), &blocks, ExecPolicy::Serial);
            let par = score_blocks(scorer.as_ref(), &blocks, ExecPolicy::Threads(8));
            assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.id, p.id, "{name}: order must be preserved");
                assert_eq!(s.score.to_bits(), p.score.to_bits(), "{name}: score drift");
                assert_eq!(s.points, p.points);
            }
        }
    }

    #[test]
    fn empty_block_set() {
        let scorer = crate::by_name("VAR").unwrap();
        assert!(score_blocks(scorer.as_ref(), &[], ExecPolicy::Threads(4)).is_empty());
    }

    #[test]
    fn concurrency_recommendation_scales_with_blocks() {
        assert_eq!(recommended_concurrency(1).preferred.get(), 1);
        assert_eq!(recommended_concurrency(1024).preferred.get(), 128);
    }
}

//! Block redistribution (shuffling) across ranks — paper §IV-D.
//!
//! All ranks hold the same globally-sorted score list, so each can compute
//! the full assignment independently (same seed ⇒ same shuffle) and then
//! exchange blocks with non-blocking sends/receives — realized here over
//! [`apc_comm`]'s `alltoallv`.

use apc_comm::{Meter, Rank};
use apc_grid::{Block, BlockData, BlockId};
use apc_par::SplitMix64;

use crate::config::Redistribution;
use crate::selection::ScoredBlock;

/// A block as it crosses ranks — in the synchronous exchange and in the
/// staged sim → stager hand-off. The ranks are threads, so the block is
/// moved, not serialized; its [`Meter`] charges the flat `f32` message a
/// real transfer ships: a header of id, kind and the extent's six bounds
/// (plus the three lattice dims of a `Sampled` payload), then the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBlock(pub Block);

impl Meter for WireBlock {
    fn nbytes(&self) -> usize {
        let header = match self.0.data {
            BlockData::Full(_) | BlockData::Reduced(_) => 8,
            BlockData::Sampled { .. } => 11,
        };
        header * std::mem::size_of::<f32>() + self.0.nbytes()
    }
}

/// Compute the destination rank of every block. `sorted` is the global
/// score list in ascending order; returns `assignment[block_id] = rank`.
///
/// Both strategies keep the per-rank block count constant (`n / nranks`),
/// as the paper specifies for random shuffling and as round-robin dealing
/// guarantees by construction.
pub fn assignment(
    strategy: Redistribution,
    sorted: &[ScoredBlock],
    nranks: usize,
    producer: impl Fn(BlockId) -> usize,
) -> Vec<usize> {
    let n = sorted.len();
    let mut assign = vec![0usize; n];
    match strategy {
        Redistribution::None => {
            for s in sorted {
                assign[s.id as usize] = producer(s.id);
            }
        }
        Redistribution::RandomShuffle { seed } => {
            // Deterministic shuffle computed identically on every rank
            // (paper: "making sure all processes use the same seed").
            let mut ids: Vec<BlockId> = (0..n as BlockId).collect();
            SplitMix64::new(seed).shuffle(&mut ids);
            let per_rank = n / nranks;
            let remainder = n % nranks;
            let mut cursor = 0;
            for rank in 0..nranks {
                let take = per_rank + usize::from(rank < remainder);
                for &id in &ids[cursor..cursor + take] {
                    assign[id as usize] = rank;
                }
                cursor += take;
            }
        }
        Redistribution::RoundRobin => {
            // "Process 0 takes the block with the highest score; process 1
            // the block with the second highest score, and so on."
            for (pos, s) in sorted.iter().rev().enumerate() {
                assign[s.id as usize] = pos % nranks;
            }
        }
    }
    assign
}

/// Exchange blocks according to `assign`; returns the blocks this rank now
/// holds (its own kept blocks plus received ones), ordered by block id for
/// determinism.
pub fn exchange(rank: &mut Rank, held: Vec<Block>, assign: &[usize]) -> Vec<Block> {
    let n = rank.nranks();
    let mut outgoing: Vec<Vec<WireBlock>> = (0..n).map(|_| Vec::new()).collect();
    for block in held {
        let dst = assign[block.id as usize];
        outgoing[dst].push(WireBlock(block));
    }
    let incoming = rank.alltoallv(outgoing);
    let mut blocks: Vec<Block> = incoming.into_iter().flatten().map(|w| w.0).collect();
    blocks.sort_by_key(|b| b.id);
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_comm::{NetModel, Runtime, Tag};
    use apc_grid::{Dims3, Extent3};

    fn sorted_fixture(n: usize) -> Vec<ScoredBlock> {
        // Ascending scores; block id i has score i.
        (0..n)
            .map(|i| ScoredBlock {
                id: i as BlockId,
                score: i as f64,
            })
            .collect()
    }

    #[test]
    fn none_keeps_producers() {
        let sorted = sorted_fixture(8);
        let assign = assignment(Redistribution::None, &sorted, 4, |id| (id as usize) / 2);
        assert_eq!(assign, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn round_robin_deals_from_the_top() {
        let sorted = sorted_fixture(8);
        let assign = assignment(Redistribution::RoundRobin, &sorted, 4, |_| 0);
        // Highest score = id 7 → rank 0; id 6 → rank 1; ...
        assert_eq!(assign[7], 0);
        assert_eq!(assign[6], 1);
        assert_eq!(assign[5], 2);
        assert_eq!(assign[4], 3);
        assert_eq!(assign[3], 0);
        // Equal counts.
        for r in 0..4 {
            assert_eq!(assign.iter().filter(|&&a| a == r).count(), 2);
        }
    }

    #[test]
    fn random_shuffle_is_deterministic_and_balanced() {
        let sorted = sorted_fixture(100);
        let a = assignment(Redistribution::RandomShuffle { seed: 9 }, &sorted, 4, |_| 0);
        let b = assignment(Redistribution::RandomShuffle { seed: 9 }, &sorted, 4, |_| 0);
        assert_eq!(a, b, "same seed must agree across ranks");
        let c = assignment(
            Redistribution::RandomShuffle { seed: 10 },
            &sorted,
            4,
            |_| 0,
        );
        assert_ne!(a, c, "different seeds should differ");
        for r in 0..4 {
            assert_eq!(a.iter().filter(|&&x| x == r).count(), 25);
        }
    }

    #[test]
    fn random_shuffle_handles_non_divisible_counts() {
        let sorted = sorted_fixture(10);
        let a = assignment(Redistribution::RandomShuffle { seed: 1 }, &sorted, 4, |_| 0);
        let mut counts = [0usize; 4];
        for &r in &a {
            counts[r] += 1;
        }
        counts.sort_unstable();
        assert_eq!(counts, [2, 2, 3, 3]);
    }

    fn tiny_block(id: BlockId, value: f32) -> Block {
        Block {
            id,
            extent: Extent3::new((0, 0, 0), (2, 2, 2)),
            data: BlockData::Reduced([value; 8]),
        }
    }

    #[test]
    fn wire_block_meters_header_plus_payload() {
        // The byte count of the flat `[id, kind, lo, hi, (lattice dims)?,
        // payload...]` f32 message: 8 header floats, 11 for `Sampled`.
        let extent = Extent3::new((0, 0, 0), (5, 4, 3));
        let full = Block {
            id: 7,
            extent,
            data: BlockData::Full(vec![1.5; 60].into()),
        };
        let sampled = full.downsampled(3);
        assert!(
            matches!(sampled.data, BlockData::Sampled { dims, .. } if dims == Dims3::new(3, 3, 3))
        );
        for (block, floats) in [
            (full.clone(), 8 + 60),
            (full.reduced(), 8 + 8),
            (sampled, 11 + 27),
        ] {
            assert_eq!(WireBlock(block).nbytes(), floats * 4);
        }
        // A scored block of the staged hand-off adds its f64 score.
        assert_eq!((WireBlock(full.reduced()), 0.5f64).nbytes(), 16 * 4 + 8);
    }

    #[test]
    fn block_ids_above_two_to_the_24_survive_the_wire() {
        // An id carried in an f32 header aliased from 2^24 + 1 on.
        let id: BlockId = (1 << 24) + 1;
        let out = Runtime::new(2, NetModel::blue_waters()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(1), WireBlock(tiny_block(id, 3.0)));
                None
            } else {
                Some(rank.recv::<WireBlock>(0, Tag(1)).0)
            }
        });
        assert_eq!(out[1], Some(tiny_block(id, 3.0)));
    }

    #[test]
    fn exchange_moves_blocks_to_assignees() {
        let out = Runtime::new(4, NetModel::blue_waters()).run(|rank| {
            // Each rank produces 2 blocks: ids 2r and 2r+1.
            let r = rank.rank();
            let held = vec![
                tiny_block(2 * r as BlockId, r as f32),
                tiny_block(2 * r as BlockId + 1, r as f32),
            ];
            // Reverse assignment: block b goes to rank 3 - b/2.
            let assign: Vec<usize> = (0..8).map(|b| 3 - b / 2).collect();
            exchange(rank, held, &assign)
        });
        for (r, blocks) in out.iter().enumerate() {
            let expect: Vec<BlockId> = vec![2 * (3 - r) as BlockId, 2 * (3 - r) as BlockId + 1];
            let got: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
            assert_eq!(got, expect, "rank {r}");
        }
    }

    #[test]
    fn exchange_with_identity_assignment_is_local() {
        let out = Runtime::new(2, NetModel::blue_waters()).run(|rank| {
            let r = rank.rank();
            let held = vec![tiny_block(r as BlockId, 1.0)];
            let assign = vec![0usize, 1];
            let t0 = rank.clock();
            let blocks = exchange(rank, held, &assign);
            (blocks, rank.clock() - t0)
        });
        assert_eq!(out[0].0[0].id, 0);
        assert_eq!(out[1].0[0].id, 1);
        // Only empty envelopes crossed the wire: cost stays tiny.
        assert!(out[0].1 < 1e-3, "identity exchange cost {}", out[0].1);
    }
}

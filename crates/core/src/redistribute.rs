//! Block redistribution (shuffling) across ranks — paper §IV-D.
//!
//! All ranks hold the same globally-sorted score list, so each decides
//! locally where its own blocks go — round robin from a block's position in
//! that list, random shuffling from a permutation every rank draws with the
//! same seed — and then exchanges blocks with non-blocking sends/receives,
//! realized here over [`apc_comm`]'s `alltoallv`. No rank builds a table
//! over every block for round robin; the whole-domain table it replaced
//! is the tests' oracle.

use std::cmp::Ordering;

use apc_comm::{Meter, Rank};
use apc_grid::{Block, BlockData, BlockId};
use apc_par::SplitMix64;

use crate::config::Redistribution;
use crate::selection::{score_order, ScoredBlock};

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

/// The destination rank of each block this rank holds, in `own`'s order
/// (`own[i]` is the scored entry of the i-th held block), or `None` when
/// `strategy` keeps every block where it is. `sorted` is the global score
/// list in ascending order, the same on every rank.
///
/// Both shuffling strategies keep the per-rank block count constant
/// (`n / nranks`, the first `n % nranks` ranks one more), as the paper
/// specifies for random shuffling and as round-robin dealing guarantees by
/// construction. Round robin costs what the rank holds: a block's position
/// in the shared order is one binary search.
pub fn destinations(
    strategy: Redistribution,
    sorted: &[ScoredBlock],
    nranks: usize,
    own: &[ScoredBlock],
) -> Option<Vec<usize>> {
    let n = sorted.len();
    match strategy {
        Redistribution::None => None,
        Redistribution::RandomShuffle { seed } => {
            // Deterministic shuffle computed identically on every rank
            // (paper: "making sure all processes use the same seed"),
            // dealt out in consecutive shares.
            let mut ids: Vec<BlockId> = (0..n as BlockId).collect();
            SplitMix64::new(seed).shuffle(&mut ids);
            let mut share = vec![0usize; n];
            let per_rank = n / nranks;
            let remainder = n % nranks;
            let mut cursor = 0;
            for rank in 0..nranks {
                let take = per_rank + usize::from(rank < remainder);
                for &id in &ids[cursor..cursor + take] {
                    share[id as usize] = rank;
                }
                cursor += take;
            }
            Some(own.iter().map(|s| share[s.id as usize]).collect())
        }
        Redistribution::RoundRobin => {
            // "Process 0 takes the block with the highest score; process 1
            // the block with the second highest score, and so on."
            Some(
                own.iter()
                    .map(|s| {
                        let pos = sorted.partition_point(|t| score_order(t, s) == Ordering::Less);
                        (n - 1 - pos) % nranks
                    })
                    .collect(),
            )
        }
    }
}

/// Exchange blocks, `held[i]` to rank `dests[i]`; returns the blocks this
/// rank now holds (its own kept blocks plus received ones), ordered by
/// block id for determinism.
pub fn exchange(rank: &mut Rank, held: Vec<Block>, dests: &[usize]) -> Vec<Block> {
    let (incoming, _) = rank.alltoallv(held.into_iter().map(WireBlock).collect(), dests);
    let mut blocks: Vec<Block> = incoming.into_iter().map(|w| w.0).collect();
    // Block ids are unique, so the unstable sort gives the one order.
    blocks.sort_unstable_by_key(|b| b.id);
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{reduction_cut, reduction_mask};
    use apc_comm::{NetModel, Runtime, Tag};
    use apc_grid::{Dims3, Extent3};
    use std::sync::Arc;

    /// The whole-domain round-robin table [`destinations`] replaced,
    /// kept as its oracle: `assignment[block_id] = rank` for every block
    /// of the ascending `sorted` list.
    fn round_robin_assignment(sorted: &[ScoredBlock], nranks: usize) -> Vec<usize> {
        let mut assign = vec![0usize; sorted.len()];
        for (pos, s) in sorted.iter().rev().enumerate() {
            assign[s.id as usize] = pos % nranks;
        }
        assign
    }

    /// Every block's destination under `strategy`, indexed by id, as the
    /// ranks decide it: rank r holds the r-th contiguous share of `sorted`
    /// and calls [`destinations`] for its own blocks only.
    fn dealt(strategy: Redistribution, sorted: &[ScoredBlock], nranks: usize) -> Vec<usize> {
        let mut dest = vec![usize::MAX; sorted.len()];
        for own in sorted.chunks(sorted.len().div_ceil(nranks)) {
            let dests = destinations(strategy, sorted, nranks, own).unwrap();
            for (s, d) in own.iter().zip(dests) {
                dest[s.id as usize] = d;
            }
        }
        dest
    }

    /// `n` scored blocks from SplitMix64 `seed`: every third score forced
    /// equal to another (ties broken by id), and one NaN — positive or
    /// negative by the seed's parity — which `total_cmp` orders past
    /// every finite score.
    fn split_mix_scores(n: usize, seed: u64) -> Vec<ScoredBlock> {
        let mut rng = SplitMix64::new(seed);
        let mut scored: Vec<ScoredBlock> = (0..n)
            .map(|i| ScoredBlock {
                id: i as BlockId,
                score: if i % 3 == 1 {
                    [0.25, 0.5][rng.below(2)]
                } else {
                    rng.range_f64(0.0, 1.0)
                },
            })
            .collect();
        let nan = if seed.is_multiple_of(2) {
            f64::NAN
        } else {
            -f64::NAN
        };
        scored[rng.below(n)].score = nan;
        scored
    }

    /// The local decisions against the whole-domain oracles for every
    /// block: the reduction cut against `reduction_mask`, round robin
    /// against its whole-domain table. The blocks are dealt to ranks in a
    /// scrambled order, so `own` is neither sorted nor contiguous; the
    /// seeded shuffle must not depend on that order either.
    #[test]
    fn local_decisions_match_the_whole_domain_oracles() {
        for (case, n) in [1usize, 7, 64, 6400].into_iter().enumerate() {
            let scored = split_mix_scores(n, 11 + case as u64);
            let mut sorted = scored.clone();
            sorted.sort_by(score_order);
            for percent in [0.0, 0.1, 50.0, 99.9, 100.0] {
                let mask = reduction_mask(&sorted, percent);
                let reduces = reduction_cut(&sorted, percent);
                for s in &scored {
                    assert_eq!(
                        reduces(s),
                        mask.get(s.id as usize) == Some(&true),
                        "n {n} p {percent} block {}",
                        s.id
                    );
                }
            }
            for nranks in [3usize, 5, 64] {
                let mut scrambled: Vec<BlockId> = (0..n as BlockId).collect();
                SplitMix64::new(case as u64).shuffle(&mut scrambled);
                for (strategy, oracle) in [
                    (
                        Redistribution::RoundRobin,
                        round_robin_assignment(&sorted, nranks),
                    ),
                    (
                        Redistribution::RandomShuffle { seed: 9 },
                        dealt(Redistribution::RandomShuffle { seed: 9 }, &sorted, nranks),
                    ),
                ] {
                    for rank in 0..nranks {
                        let own: Vec<ScoredBlock> = scrambled
                            .iter()
                            .skip(rank)
                            .step_by(nranks)
                            .map(|&id| scored[id as usize])
                            .collect();
                        let dests = destinations(strategy, &sorted, nranks, &own).unwrap();
                        assert_eq!(dests.len(), own.len());
                        for (s, &dst) in own.iter().zip(&dests) {
                            assert_eq!(
                                dst, oracle[s.id as usize],
                                "{strategy:?} n {n} nranks {nranks} block {}",
                                s.id
                            );
                        }
                    }
                }
            }
        }
    }

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
        for own in sorted.chunks(2) {
            assert_eq!(destinations(Redistribution::None, &sorted, 4, own), None);
        }
    }

    #[test]
    fn round_robin_deals_from_the_top() {
        let sorted = sorted_fixture(8);
        let assign = dealt(Redistribution::RoundRobin, &sorted, 4);
        // Highest score = id 7 → rank 0; id 6 → rank 1; ...
        assert_eq!(assign, vec![3, 2, 1, 0, 3, 2, 1, 0]);
        assert_eq!(assign, round_robin_assignment(&sorted, 4));
        // Equal counts.
        for r in 0..4 {
            assert_eq!(assign.iter().filter(|&&a| a == r).count(), 2);
        }
        // A rank holding ids 6 and 3 deals them from their positions.
        let own = [sorted[6], sorted[3]];
        assert_eq!(
            destinations(Redistribution::RoundRobin, &sorted, 4, &own),
            Some(vec![1, 0])
        );
    }

    #[test]
    fn random_shuffle_is_deterministic_and_balanced() {
        let sorted = sorted_fixture(100);
        let a = dealt(Redistribution::RandomShuffle { seed: 9 }, &sorted, 4);
        let b = dealt(Redistribution::RandomShuffle { seed: 9 }, &sorted, 4);
        assert_eq!(a, b, "same seed must agree across ranks");
        let c = dealt(Redistribution::RandomShuffle { seed: 10 }, &sorted, 4);
        assert_ne!(a, c, "different seeds should differ");
        for r in 0..4 {
            assert_eq!(a.iter().filter(|&&x| x == r).count(), 25);
        }
    }

    #[test]
    fn random_shuffle_handles_non_divisible_counts() {
        let sorted = sorted_fixture(10);
        let a = dealt(Redistribution::RandomShuffle { seed: 1 }, &sorted, 4);
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
            // Reverse assignment: both blocks go to rank 3 - r.
            exchange(rank, held, &[3 - r, 3 - r])
        });
        for (r, blocks) in out.iter().enumerate() {
            let expect: Vec<BlockId> = vec![2 * (3 - r) as BlockId, 2 * (3 - r) as BlockId + 1];
            let got: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
            assert_eq!(got, expect, "rank {r}");
        }
    }

    /// The per-peer exchange [`exchange`] replays: one `Vec<WireBlock>`
    /// per destination, sent with `send` in destination order and received
    /// with `recv` in source order.
    fn exchange_by_p2p(rank: &mut Rank, held: Vec<Block>, dests: &[usize]) -> Vec<Block> {
        const TAG: Tag = Tag(45);
        let (n, me) = (rank.nranks(), rank.rank());
        let mut outgoing: Vec<Vec<WireBlock>> = (0..n).map(|_| Vec::new()).collect();
        for (block, &dst) in held.into_iter().zip(dests) {
            outgoing[dst].push(WireBlock(block));
        }
        let mut blocks = std::mem::take(&mut outgoing[me]);
        for (dst, batch) in outgoing.into_iter().enumerate() {
            if dst != me {
                rank.send(dst, TAG, batch);
            }
        }
        for src in (0..n).filter(|&src| src != me) {
            blocks.extend(rank.recv::<Vec<WireBlock>>(src, TAG));
        }
        let mut blocks: Vec<Block> = blocks.into_iter().map(|w| w.0).collect();
        blocks.sort_by_key(|b| b.id);
        blocks
    }

    #[test]
    fn exchange_replays_the_per_peer_p2p_exchange() {
        let mut moved = 0;
        for (n, seed) in [(1, 31), (2, 32), (3, 33), (7, 34), (16, 35), (64, 36)] {
            // Per rank: its held blocks (all three payload kinds), their
            // SplitMix64 destinations and a clock skew. From 2 ranks on,
            // rank 0 sends nothing; from 3 on, nothing goes to the last.
            let mut rng = SplitMix64::new(seed);
            let extent = Extent3::new((0, 0, 0), (5, 4, 3));
            let fixture: Vec<(Vec<Block>, Vec<usize>, f64)> = (0..n)
                .map(|r| {
                    let count = if n > 1 && r == 0 { 0 } else { rng.below(3 * n) };
                    let held: Vec<Block> = (0..count)
                        .map(|i| {
                            let full = Block {
                                id: (r * 1000 + i) as BlockId,
                                extent,
                                data: BlockData::Full(
                                    (0..60).map(|_| rng.range_f32(-1.0, 1.0)).collect(),
                                ),
                            };
                            match i % 3 {
                                0 => full,
                                1 => full.reduced(),
                                _ => full.downsampled(3),
                            }
                        })
                        .collect();
                    let reach = if n > 2 { n - 1 } else { n };
                    let dests = (0..count).map(|_| rng.below(reach)).collect();
                    (held, dests, rng.next_f64() * 1e-3)
                })
                .collect();
            let run = |by: fn(&mut Rank, Vec<Block>, &[usize]) -> Vec<Block>| {
                Runtime::new(n, NetModel::blue_waters().for_paper_scale()).run(|rank| {
                    let (held, dests, skew) = &fixture[rank.rank()];
                    rank.advance(*skew);
                    let blocks = by(rank, held.clone(), dests);
                    (blocks, rank.clock().to_bits())
                })
            };
            let flat = run(exchange);
            assert_eq!(flat, run(exchange_by_p2p), "{n} ranks");
            if n > 2 {
                assert!(
                    flat[n - 1].0.is_empty(),
                    "{n} ranks: the last receives nothing"
                );
            }
            // Full payloads moved, not copied: the fixture's own `Arc`s.
            for block in flat.iter().flat_map(|(blocks, _)| blocks) {
                let (held, _, _) = &fixture[block.id as usize / 1000];
                let sent = &held[block.id as usize % 1000];
                if let (BlockData::Full(got), BlockData::Full(sent)) = (&block.data, &sent.data) {
                    assert!(Arc::ptr_eq(got, sent), "{n} ranks: block {}", block.id);
                    moved += 1;
                }
            }
        }
        assert!(moved > 100, "only {moved} full blocks crossed");
    }

    #[test]
    fn exchange_with_identity_assignment_is_local() {
        let out = Runtime::new(2, NetModel::blue_waters()).run(|rank| {
            let r = rank.rank();
            let held = vec![tiny_block(r as BlockId, 1.0)];
            let t0 = rank.clock();
            let blocks = exchange(rank, held, &[r]);
            (blocks, rank.clock() - t0)
        });
        assert_eq!(out[0].0[0].id, 0);
        assert_eq!(out[1].0[0].id, 1);
        // Only empty envelopes crossed the wire: cost stays tiny.
        assert!(out[0].1 < 1e-3, "identity exchange cost {}", out[0].1);
    }
}

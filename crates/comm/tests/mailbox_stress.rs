//! Mailbox stress: the two hazards of waking a receiver only for the
//! message it is parked on.
//!
//! A sender that decides "not what the owner waits for" a moment before
//! the owner publishes what it waits for must still be seen by it (the
//! owner looks in the FIFO under the same lock it publishes under), and a
//! wake-up must never be dropped or spent on the wrong message — either
//! strands a rank until the timeout diagnostic names its `(src, tag)`.
//! And with one FIFO per source holding several tags, a selective receive
//! must never reorder a `(src, tag)` stream. Every payload here carries
//! its position in its stream, so one overtaking shows as a wrong number.
//!
//! The schedule is a pure function of the round: every rank derives the
//! same message list from the same seed, sends its share with rank-skewed
//! pauses, then receives what is addressed to it in an order of its own
//! that has nothing to do with arrival. No collective separates the
//! rounds, so fast ranks run rounds ahead and their later messages queue
//! up behind earlier ones in the same FIFOs.

use std::hint::spin_loop;
use std::thread::yield_now;

use apc_comm::{NetModel, Rank, Runtime, Tag};
use apc_par::SplitMix64;

const TAGS: usize = 3;

/// Rank- and message-dependent wall-clock skew between sends (the shape
/// of `rendezvous_lapping.rs`'s): some give up their time slice, some burn
/// a little of it, most run straight through.
fn skew(r: usize, i: usize) {
    match (r * 31 + i * 17) % 7 {
        0 => yield_now(),
        1 => (0..(r * 13 + i) % 300).for_each(|_| spin_loop()),
        _ => {}
    }
}

/// Round `k`: `4 n` messages between random pairs (self-sends included)
/// on random tags. `sent[dst][tag]` and `seen[src][tag]` count this rank's
/// streams across rounds — the expected payloads.
fn round(rank: &mut Rank, k: u64, sent: &mut [[u64; TAGS]], seen: &mut [[u64; TAGS]]) {
    let (r, n) = (rank.rank(), rank.nranks());
    let mut rng = SplitMix64::new(0x4D41_494C ^ k);
    let schedule: Vec<(usize, usize, usize)> = (0..4 * n)
        .map(|_| (rng.below(n), rng.below(n), rng.below(TAGS)))
        .collect();

    for (i, &(_, dst, tag)) in schedule.iter().enumerate().filter(|(_, m)| m.0 == r) {
        skew(r, i);
        rank.send(dst, Tag(tag as u32), (r as u64, sent[dst][tag]));
        sent[dst][tag] += 1;
    }

    let mut mine: Vec<(usize, usize)> = schedule
        .iter()
        .filter(|m| m.1 == r)
        .map(|&(src, _, tag)| (src, tag))
        .collect();
    // This rank's own order: a Fisher–Yates shuffle seeded by rank and
    // round, so no two ranks — and no two rounds — agree on one.
    let mut order = SplitMix64::new(k << 20 | r as u64);
    for i in (1..mine.len()).rev() {
        mine.swap(i, order.below(i + 1));
    }
    for (src, tag) in mine {
        let got: (u64, u64) = rank.recv(src, Tag(tag as u32));
        assert_eq!(
            got,
            (src as u64, seen[src][tag]),
            "rank {r}, round {k}: stream (src={src}, tag={tag}) out of order"
        );
        seen[src][tag] += 1;
    }
}

#[test]
fn every_stream_arrives_in_order_and_every_round_completes() {
    for n in [2, 3, 16, 64] {
        let mut session = Runtime::new(n, NetModel::free()).session();
        for run in 0..25u64 {
            // Stream positions are per run, like the epoch.
            session.run(|rank| {
                let mut sent = vec![[0; TAGS]; n];
                let mut seen = vec![[0; TAGS]; n];
                (run * 40..run * 40 + 40).for_each(|k| round(rank, k, &mut sent, &mut seen));
            });
        }
    }
}

//! Clock pin: the virtual time every collective charges, and the payloads
//! it delivers, as 64-bit FNV-1a digests.
//!
//! Every report, golden and benchmark digest downstream is a function of
//! the per-rank virtual clocks, so a change to how the collectives meet
//! (the rendezvous, the `alltoallv` data plane, the sample sort's bucket
//! exchange) must reproduce both digests below bit for bit. The constants
//! were generated on the code *before* the single-phase rendezvous landed —
//! two barrier phases, a global slot table and one boxed envelope per
//! `alltoallv` peer. A mismatch prints the actual table in source form,
//! but pasting it is a virtual-time change: every golden moves with it.
//!
//! One scripted SPMD sequence on `NetModel::blue_waters()` at 8 and 64
//! ranks — as the pure wire model and `for_paper_scale()`, whose additive
//! per-byte ingest makes the order of a receiver's merges and charges
//! visible: rank-skewed compute before every step, then each collective
//! once, ending in an `alltoallv` with uneven batches (empty ones, a
//! non-empty self batch, block-like payloads whose metered size varies).

use std::cmp::Ordering;

use apc_comm::sort::{gather_sort_broadcast, sample_sort};
use apc_comm::{Meter, NetModel, Rank, Runtime};

/// `(paper scale, ranks, digest)` of the script below.
const PINNED: [(bool, usize, u64); 4] = [
    (false, 8, 0xc364_0815_3620_705f),
    (false, 64, 0xde37_ca77_8bff_1a7c),
    (true, 8, 0xe4b4_4bb2_8388_4e7e),
    (true, 64, 0x3277_7d54_cf31_71ae),
];

/// Shaped like `apc_core::WireBlock`: a fixed header plus a body whose
/// length varies per message, metered as the flat buffer a transfer ships.
#[derive(Clone)]
struct Blob {
    id: u32,
    body: Vec<f32>,
}

impl Meter for Blob {
    fn nbytes(&self) -> usize {
        (8 + self.body.len()) * 4
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn pair(&mut self, &(id, score): &(u32, f64)) {
        self.u64(id as u64);
        self.u64(score.to_bits());
    }
}

fn scored_pairs(rank: usize) -> Vec<(u32, f64)> {
    // Uneven counts (rank 0 holds nothing) and repeated scores, so the id
    // tie-break decides part of the order.
    (0..rank % 5 * 9)
        .map(|i| {
            let id = (rank * 64 + i) as u32;
            (id, ((id as f64 * 0.7371 + 0.213).sin() * 8.0).round())
        })
        .collect()
}

fn cmp_pairs(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// The script. Returns this rank's digest of every clock it observed and
/// every payload it was handed.
fn script(rank: &mut Rank) -> u64 {
    let r = rank.rank();
    let n = rank.nranks();
    let mut h = Fnv::new();
    let mut step = 0usize;
    // Rank-skewed compute in front of every collective, then the clock
    // after it: the max-sync and the model charge both land in the digest.
    let mut skew = |rank: &mut Rank| {
        step += 1;
        rank.advance(1e-4 * ((r * 7 + step * 3) % 11) as f64);
    };

    skew(rank);
    rank.barrier();
    h.u64(rank.clock().to_bits());

    skew(rank);
    let root = n - 1;
    let v: Vec<u32> = rank.broadcast(root, (r == root).then(|| (0..37).collect()));
    v.iter().for_each(|&x| h.u64(x as u64));
    h.u64(rank.clock().to_bits());

    skew(rank);
    let gathered = rank.gather(1, (r as u32, r as f64 * 0.5));
    h.u64(gathered.is_some() as u64);
    gathered.iter().flatten().for_each(|p| h.pair(p));
    h.u64(rank.clock().to_bits());

    skew(rank);
    let root = 2 % n;
    let parts = (r == root).then(|| (0..n).map(|d| vec![d as f32; d % 4 * 5]).collect());
    let mine: Vec<f32> = rank.scatter(root, parts);
    mine.iter().for_each(|x| h.u64(x.to_bits() as u64));
    h.u64(rank.clock().to_bits());

    skew(rank);
    let reduced = rank.reduce(0, 1.0 / (r as f64 + 1.0), |a, b| a + b);
    h.u64(reduced.map_or(u64::MAX, f64::to_bits));
    h.u64(rank.clock().to_bits());

    skew(rank);
    h.u64(rank.allreduce(r as u64 * r as u64, |a, b| a + b));
    h.u64(rank.clock().to_bits());

    skew(rank);
    for part in rank.allgather(vec![r as u8; r % 3 * 7]) {
        h.u64(part.len() as u64);
        part.iter().for_each(|&b| h.u64(b as u64));
    }
    h.u64(rank.clock().to_bits());

    skew(rank);
    h.u64(
        rank.exclusive_scan(r as u64 + 1, |a, b| a.wrapping_mul(3).wrapping_add(b))
            .unwrap_or(u64::MAX),
    );
    h.u64(rank.clock().to_bits());

    skew(rank);
    gather_sort_broadcast(rank, scored_pairs(r), cmp_pairs)
        .iter()
        .for_each(|p| h.pair(p));
    h.u64(rank.clock().to_bits());

    skew(rank);
    sample_sort(rank, scored_pairs(r), cmp_pairs)
        .iter()
        .for_each(|p| h.pair(p));
    h.u64(rank.clock().to_bits());

    skew(rank);
    let outgoing: Vec<Vec<Blob>> = (0..n)
        .map(|d| {
            // 0..=3 blobs per pair: some batches are empty, and the self
            // batch (d == r) holds (r + 1) % 4 blobs.
            (0..(r * 3 + d * 6 + 1) % 4)
                .map(|i| Blob {
                    id: (r * n + d) as u32 * 4 + i as u32,
                    body: vec![r as f32 - d as f32; (r + 2 * d + i) % 7 * 16],
                })
                .collect()
        })
        .collect();
    for (src, batch) in rank.alltoallv(outgoing).iter().enumerate() {
        h.u64(src as u64);
        h.u64(batch.len() as u64);
        for blob in batch {
            h.u64(blob.id as u64);
            blob.body.iter().for_each(|x| h.u64(x.to_bits() as u64));
        }
    }
    h.u64(rank.clock().to_bits());

    // And one more rendezvous after the exchange, so a clock the
    // `alltoallv` left different on some rank also moves its peers.
    skew(rank);
    rank.barrier();
    h.u64(rank.clock().to_bits());
    h.0
}

#[test]
fn collective_clocks_and_payloads_are_pinned() {
    let actual = PINNED.map(|(paper_scale, n, _)| {
        let net = NetModel::blue_waters();
        let net = if paper_scale {
            net.for_paper_scale()
        } else {
            net
        };
        let mut h = Fnv::new();
        for (r, d) in Runtime::new(n, net).run(script).into_iter().enumerate() {
            h.u64(r as u64);
            h.u64(d);
        }
        (paper_scale, n, h.0)
    });
    let table: String = actual
        .iter()
        .map(|(paper_scale, n, d)| format!("    ({paper_scale}, {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, PINNED,
        "virtual time or a delivered payload moved; actual table:\n\
         const PINNED: [(bool, usize, u64); 4] = [\n{table}];"
    );
}

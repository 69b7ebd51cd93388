//! Clock pin: the virtual time every collective and every point-to-point
//! path charges, and the payloads they deliver, as 64-bit FNV-1a digests.
//!
//! Every report, golden and benchmark digest downstream is a function of
//! the per-rank virtual clocks, so a change to how the collectives meet
//! (the rendezvous, the `alltoallv` data plane, the sample sort's bucket
//! exchange) or to how a message finds its receiver (the structures under
//! `send` and `recv`) must reproduce the digests below bit for bit. Each
//! table was generated on the code *before* the rewrite it fences: the
//! collectives' before the single-phase rendezvous landed — two barrier
//! phases, a global slot table and one boxed envelope per `alltoallv`
//! peer — and the p2p one on one `mpsc` inbox, n² senders and a scanned
//! stash per rank. A mismatch prints the actual table in source form, but
//! pasting it is a virtual-time change: every golden moves with it.
//!
//! Two scripted SPMD sequences on `NetModel::blue_waters()` at 8 and 64
//! ranks — as the pure wire model and `for_paper_scale()`, whose additive
//! per-byte ingest makes the order of a receiver's merges and charges
//! visible — with rank-skewed compute before every step. [`script`] runs
//! each collective the pipeline calls once (barrier, gather, allreduce,
//! allgather, both sorts), ending in an `alltoallv` with uneven batches
//! (empty ones, a non-empty self batch, block-like payloads whose metered
//! size varies). [`p2p_script`] runs everything that travels by tag: a
//! ring, receives in the opposite order of sending (across two tags, then
//! across three sources), a fan-in to one root, the stage queues under
//! credit flow and through `dequeue_deferred`, and serve endpoints in the
//! replay client's shape — requests posted eagerly, replies collected
//! pair by pair in server order while the servers answer in theirs.

use std::cmp::Ordering;

use apc_comm::sort::{gather_sort_broadcast, sample_sort};
use apc_comm::{
    FlowControl, Meter, NetModel, QueueReceiver, QueueSender, Rank, Runtime, ServeClient,
    ServeServer, Tag,
};

/// `(paper scale, ranks, digest)` of one script.
type Pins = [(bool, usize, u64); 4];

/// [`script`], the collectives.
const PINNED: Pins = [
    (false, 8, 0xacbe_921e_27a8_1b16),
    (false, 64, 0xab6d_f27e_d921_8095),
    (true, 8, 0xa841_93e1_f524_d070),
    (true, 64, 0x2977_72da_28fd_c0f8),
];

/// [`p2p_script`], everything that travels by tag.
const PINNED_P2P: Pins = [
    (false, 8, 0x0af0_b97a_75d0_268e),
    (false, 64, 0xb197_5160_7ee8_0ca2),
    (true, 8, 0x15b7_1c5d_6270_fd63),
    (true, 64, 0x9d93_57cf_c983_cd16),
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

    fn blob(&mut self, blob: &Blob) {
        self.u64(blob.id as u64);
        self.u64(blob.body.len() as u64);
        blob.body.iter().for_each(|x| self.u64(x.to_bits() as u64));
    }

    fn clock(&mut self, rank: &Rank) {
        self.u64(rank.clock().to_bits());
    }
}

/// A blob whose metered size is `len`-dependent and whose body names it.
fn blob(id: usize, len: usize) -> Blob {
    Blob {
        id: id as u32,
        body: vec![id as f32 * 0.25 - len as f32; len],
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
    let gathered = rank.gather(1, (r as u32, r as f64 * 0.5));
    h.u64(gathered.is_some() as u64);
    gathered.iter().flatten().for_each(|p| h.pair(p));
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

/// The p2p script. Every receive names its `(source, tag)`, so what a rank
/// is handed and when (in virtual time) is a function of the script alone,
/// however the OS schedules the threads.
fn p2p_script(rank: &mut Rank) -> u64 {
    let r = rank.rank();
    let n = rank.nranks();
    let mut h = Fnv::new();
    let mut step = 0usize;
    let mut skew = |rank: &mut Rank| {
        step += 1;
        rank.advance(1e-4 * ((r * 5 + step * 7) % 13) as f64);
    };

    // A ring: the neighbour's skewed clock plus the wire time of a blob of
    // its size, against this rank's own skew.
    skew(rank);
    rank.send((r + 1) % n, Tag(1), blob(r, r % 5 * 24));
    h.blob(&rank.recv((r + n - 1) % n, Tag(1)));
    h.clock(rank);

    // Two tags from one source, received in the opposite order of sending:
    // the later message is merged and charged first.
    skew(rank);
    let (dst, src) = ((r + 3) % n, (r + n - 3) % n);
    rank.send(dst, Tag(2), blob(2 * r, 40));
    rank.advance(2e-5);
    rank.send(dst, Tag(3), blob(2 * r + 1, r % 3 * 64));
    h.blob(&rank.recv(src, Tag(3)));
    h.clock(rank);
    h.blob(&rank.recv(src, Tag(2)));
    h.clock(rank);

    // One tag from three sources, received from the last sender first.
    skew(rank);
    for k in 1..=3 {
        rank.send((r + k) % n, Tag(4), blob(r * 4 + k, (r + k) % 4 * 32));
    }
    for k in (1..=3).rev() {
        h.blob(&rank.recv((r + n - k) % n, Tag(4)));
        h.clock(rank);
    }

    // Fan-in to one root, received from the highest source down (under
    // paper scale the root pays every ingest, in that order), then the
    // root's clock travels back out.
    skew(rank);
    let root = n / 2;
    if r == root {
        (0..n)
            .rev()
            .filter(|&src| src != root)
            .for_each(|src| h.blob(&rank.recv(src, Tag(5))));
        h.clock(rank);
        (0..n)
            .filter(|&dst| dst != root)
            .for_each(|dst| rank.send(dst, Tag(6), rank.clock().to_bits()));
    } else {
        rank.send(root, Tag(5), blob(r, r % 6 * 20));
        h.u64(rank.recv(root, Tag(6)));
    }
    h.clock(rank);

    // Credit flow: even ranks produce faster than their odd neighbour
    // serves, through a depth-2 queue — stalls, credits and arrivals.
    skew(rank);
    const FRAMES: usize = 7;
    if r.is_multiple_of(2) {
        let mut tx = QueueSender::new(r + 1, 2, FlowControl::Credit);
        for k in 0..FRAMES {
            rank.advance(1e-5 * ((r + k) % 3) as f64);
            h.u64(
                tx.enqueue(rank, blob(r * FRAMES + k, (r + k) % 5 * 48))
                    .to_bits(),
            );
            h.clock(rank);
        }
    } else {
        let mut rx = QueueReceiver::new(r - 1, FlowControl::Credit);
        for _ in 0..FRAMES {
            let d = rx.dequeue::<Blob>(rank);
            h.blob(&d.msg);
            h.u64(d.arrival.to_bits());
            h.u64(d.bytes as u64);
            h.clock(rank);
            rank.advance(4e-5);
        }
    }

    // Lossy flow the other way round: the consumer pulls every frame ahead
    // of its clock and settles only the ones it keeps.
    skew(rank);
    if r % 2 == 1 {
        let mut tx = QueueSender::new(r - 1, 1, FlowControl::Lossy);
        for k in 0..FRAMES {
            rank.advance(3e-5);
            h.u64(
                tx.enqueue(rank, blob(r * FRAMES + k, (r + 2 * k) % 4 * 40))
                    .to_bits(),
            );
        }
    } else {
        let mut rx = QueueReceiver::new(r + 1, FlowControl::Lossy);
        let before = rank.clock();
        let pulled: Vec<_> = (0..FRAMES)
            .map(|_| rx.dequeue_deferred::<Blob>(rank))
            .collect();
        assert_eq!(rank.clock(), before, "a deferred dequeue moved the clock");
        for (k, d) in pulled.iter().enumerate() {
            h.blob(&d.msg);
            h.u64(d.arrival.to_bits());
            if k % 2 == 0 {
                rank.merge_clock_to(d.arrival);
                rank.advance(rank.net().ingest(d.bytes));
            }
            h.clock(rank);
        }
    }
    h.clock(rank);

    // Serve endpoints in the replay client's shape: the first quarter of
    // the ranks serve, the others post every request eagerly and collect
    // the replies pair by pair in *server* order, while each server works
    // through its share round by round, highest client first.
    skew(rank);
    const ROUNDS: usize = 6;
    let nservers = n / 4;
    let server_of = |c: usize, j: usize| (c * 3 + j * 5) % nservers;
    if r < nservers {
        let mut eps: Vec<ServeServer> = (nservers..n).map(|c| ServeServer::new(c, 0)).collect();
        for j in 0..ROUNDS {
            for c in (nservers..n).rev().filter(|&c| server_of(c, j) == r) {
                let ep = &mut eps[c - nservers];
                let q = ep.recv_request::<Vec<u8>>(rank);
                assert_eq!(q.msg, vec![j as u8; c % 7 + 1], "request of another round");
                h.u64(q.arrival.to_bits());
                rank.advance(1e-5 * ((c + j) % 4) as f64);
                ep.send_reply(rank, blob(c * ROUNDS + j, (c + j) % 5 * 56));
                h.clock(rank);
            }
        }
    } else {
        let mut eps: Vec<ServeClient> = (0..nservers).map(|s| ServeClient::new(s, 0)).collect();
        for j in 0..ROUNDS {
            rank.merge_clock_to(1e-3 + 2e-5 * j as f64);
            eps[server_of(r, j)].send_request(rank, vec![j as u8; r % 7 + 1]);
        }
        for (s, ep) in eps.iter_mut().enumerate() {
            for j in (0..ROUNDS).filter(|&j| server_of(r, j) == s) {
                let d = ep.recv_reply::<Blob>(rank);
                assert_eq!(
                    d.msg.id as usize,
                    r * ROUNDS + j,
                    "reply of another request"
                );
                h.blob(&d.msg);
                h.u64(d.arrival.to_bits());
                h.clock(rank);
            }
        }
    }
    h.0
}

/// Run `script` under the four pinned configurations and compare.
fn assert_pinned(name: &str, script: fn(&mut Rank) -> u64, pinned: &Pins) {
    let actual = pinned.map(|(paper_scale, n, _)| {
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
        &actual, pinned,
        "virtual time or a delivered payload moved; actual table:\n\
         const {name}: Pins = [\n{table}];"
    );
}

#[test]
fn collective_clocks_and_payloads_are_pinned() {
    assert_pinned("PINNED", script, &PINNED);
}

#[test]
fn p2p_clocks_and_payloads_are_pinned() {
    assert_pinned("PINNED_P2P", p2p_script, &PINNED_P2P);
}

//! Collective operations over the rank group.
//!
//! All collectives must be called by every rank in the same order (the usual
//! MPI contract). Data moves through one shared-memory rendezvous per
//! collective — a single phase: every rank deposits its contribution, the
//! last arriver hands the release of all of them to every other rank's
//! mailbox, where each waits for it as for a message, and each rank then
//! reads what it needs concurrently, with no lock held. *Time* moves through the
//! [`crate::NetModel`] collective cost formulas, and every collective
//! max-synchronizes the participating virtual clocks first — which is what
//! makes "the pipeline is as slow as its slowest rank" (paper §IV-D) hold
//! in the simulation. That max stays readable as [`Rank::met_at`] until
//! the next collective.
//!
//! [`Rank::barrier`] is the step-boundary rule: pay the barrier's charge on
//! the rank's own clock, then meet with nothing to read. Rounding `x + b`
//! is monotone in `x`, so the meeting's max is the slowest arrival plus the
//! charge bit for bit — and a boundary whose next step is itself a
//! collective pays the charge and lets that collective be the meeting.
//!
//! [`Rank::alltoallv`] is the one collective that charges per message: each
//! sender deposits its items once, in destination order, and each receiver
//! takes its share of every deposit into one `Vec` of its own, while its
//! clock replays the per-peer sends and receives bit for bit.
//!
//! A caller argument only its own rank can judge (where a sender's items
//! go) is validated *after* the rendezvous, from the deposits every rank
//! sees — so a bad argument fails every rank at once with its own message
//! instead of stranding the others until the run stalls.

use std::marker::PhantomData;
use std::sync::{Mutex, PoisonError};

use crate::meter::Meter;
use crate::runtime::{Contribution, Rank};

/// What one rendezvous' ranks deposited, by rank. Handed to the reader
/// closure of [`Rank::rendezvous`] by reference, so a collective clones
/// only the entries it returns.
pub(crate) struct Deposits<'a, I> {
    slots: &'a [Contribution],
    _payload: PhantomData<fn() -> I>,
}

impl<'a, I: 'static> Deposits<'a, I> {
    pub(crate) fn get(&self, rank: usize) -> &'a I {
        let (_, _, payload) = &self.slots[rank];
        #[expect(
            clippy::expect_used,
            reason = "SPMD contract — every rank calls the same collective with the same type"
        )]
        payload
            .downcast_ref::<I>()
            .expect("collective type mismatch across ranks")
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a I> + '_ {
        (0..self.slots.len()).map(|r| self.get(r))
    }
}

/// Every contribution, cloned in rank order.
fn collect<I: Clone + 'static>(all: &Deposits<'_, I>) -> Vec<I> {
    all.iter().cloned().collect()
}

impl Rank {
    /// Shared-memory rendezvous: deposit `x`, wait for everyone, let `read`
    /// take what this rank needs from the contributions (by reference, in
    /// rank order) and charge this rank's clock for it, and return that.
    /// The maximum participating clock is left in [`Rank::met_at`].
    /// Contributions carry the session-run epoch so a deposit left over
    /// from another run can never be mistaken for this run's data.
    ///
    /// `read` runs on every rank concurrently with no lock held (hence
    /// `I: Sync`), so it may clone at leisure and may panic on what a
    /// caller's argument controls: every rank sees the same deposits and
    /// fails together.
    pub(crate) fn rendezvous<I, R>(
        &mut self,
        x: I,
        read: impl FnOnce(&mut Rank, &Deposits<'_, I>) -> R,
    ) -> R
    where
        I: Send + Sync + 'static,
    {
        let mine: Contribution = (self.epoch, self.clock, Box::new(x));
        let released = self.shared.meet(self.id, mine);
        for (epoch, _, _) in &released.deposits {
            assert_eq!(
                *epoch, self.epoch,
                "collective contribution from another session run"
            );
        }
        self.met_at = released.max_clock;
        let deposits = Deposits {
            slots: &released.deposits,
            _payload: PhantomData,
        };
        read(self, &deposits)
    }

    /// Synchronize all ranks (and their clocks) by the step-boundary rule:
    /// pay the barrier's charge on this rank's own clock, then meet with
    /// nothing to read. Returns the meeting's clock, which every rank
    /// leaves with.
    pub fn barrier(&mut self) -> f64 {
        self.advance(self.net().barrier(self.nranks()));
        self.rendezvous((), |_, _| ());
        self.clock = self.met_at;
        self.clock
    }

    /// Gather every rank's value; all ranks receive the full vector in rank
    /// order.
    pub fn allgather<M: Meter + Clone + Send + Sync + 'static>(&mut self, value: M) -> Vec<M> {
        let n = self.nranks();
        let vals = self.rendezvous(value, |_, all| collect(all));
        let total: usize = vals.iter().map(Meter::nbytes).sum();
        self.clock = self.met_at + self.net().allgather(n, total);
        vals
    }

    /// Reduce all values with `op` (folded in rank order — deterministic);
    /// every rank receives the result.
    pub fn allreduce<M, F>(&mut self, value: M, op: F) -> M
    where
        M: Meter + Clone + Send + Sync + 'static,
        F: FnMut(M, M) -> M,
    {
        let n = self.nranks();
        let bytes = value.nbytes();
        let vals = self.rendezvous(value, |_, all| collect(all));
        self.clock = self.met_at + self.net().allreduce(n, bytes);
        let mut it = vals.into_iter();
        #[expect(clippy::expect_used, reason = "a runtime always has at least one rank")]
        let first = it.next().expect("allreduce over empty group");
        it.fold(first, {
            let mut op = op;
            move |acc, v| op(acc, v)
        })
    }

    /// Personalized all-to-all with variable counts: `items[i]` goes to
    /// rank `dests[i]` (`dests[i] == self` is moved locally). Returns what
    /// this rank received, in source order and each source's items in the
    /// order it passed them, with the `n + 1` source bounds: source `s`'s
    /// items are `received[bounds[s]..bounds[s + 1]]`.
    ///
    /// Each sender makes one deposit: one stable counting pass lays its
    /// items out in destination order as take-once cells, in one
    /// allocation with the per-destination send stamps. Each receiver
    /// takes its cells out of every deposit into one `Vec` of its own —
    /// the buffer `items` came in, so a balanced exchange allocates no
    /// receive buffer. No per-peer `Vec` is built on either side.
    ///
    /// Unlike the other collectives this one charges every batch
    /// individually, as the message it is in the paper's block
    /// redistribution (§IV-D: "a series of nonblocking receives ... and a
    /// series of nonblocking sends"). The batches themselves cross in one
    /// rendezvous — a metered shared-memory exchange; what replays the
    /// sends and receives is the *clock*: each batch is stamped with the
    /// time its send would have left (one `send_overhead` per peer, in
    /// destination order, empty batches included) and each receiver then
    /// charges the receipts in source order, through the same
    /// `charge_receive` a point-to-point `recv` of those messages goes
    /// through.
    ///
    /// A destination `>= n`, or a `dests` not as long as `items`, fails
    /// every rank right after the rendezvous.
    pub fn alltoallv<M: Meter + Send + 'static>(
        &mut self,
        mut items: Vec<M>,
        dests: &[usize],
    ) -> (Vec<M>, Vec<usize>) {
        let n = self.nranks();
        let me = self.id;
        let net = self.net();
        let fault = if dests.len() != items.len() {
            Some(format!(
                "alltoallv needs one destination per item ({} items, {} destinations)",
                items.len(),
                dests.len()
            ))
        } else {
            (dests.iter().find(|&&dst| dst >= n))
                .map(|dst| format!("invalid destination rank {dst}"))
        };
        // The counting pass: `at[dst]` becomes where destination dst's
        // items start, then where its next one goes; after the exchange it
        // holds the source bounds.
        let mut at = vec![0; n + 1];
        let mut slots = Vec::new();
        if fault.is_none() {
            for &dst in dests {
                at[dst + 1] += 1;
            }
            for dst in 0..n {
                at[dst + 1] += at[dst];
            }
            slots.reserve_exact(n + items.len());
            for dst in 0..n {
                if dst != me {
                    self.clock += net.send_overhead;
                }
                let (start, end) = (at[dst], at[dst + 1]);
                let sent = self.clock;
                slots.push(Slot::Batch { start, end, sent });
            }
            slots.extend(items.iter().map(|_| Slot::Item(Mutex::new(None))));
            for (item, &dst) in items.drain(..).zip(dests) {
                slots[n + at[dst]] = Slot::Item(Mutex::new(Some(item)));
                at[dst] += 1;
            }
        }
        // The rendezvous' own max clock is not charged: peers synchronize
        // through the per-message arrivals below, as real p2p traffic does.
        let outbox = Outbox { slots, fault };
        self.rendezvous(outbox, |rank, all| {
            let fault = all.iter().find_map(|outbox| outbox.fault.as_deref());
            assert!(fault.is_none(), "{}", fault.unwrap_or_default());
            let mut bounds = at;
            bounds.clear();
            bounds.push(0);
            for (src, Outbox { slots, .. }) in all.iter().enumerate() {
                let Slot::Batch { start, end, sent } = slots[me] else {
                    unreachable!("an outbox opens with its n batches")
                };
                let mut bytes = 0;
                for slot in &slots[n + start..n + end] {
                    let Slot::Item(cell) = slot else {
                        unreachable!("an outbox's batches are followed by its items")
                    };
                    if let Some(item) = cell.lock().unwrap_or_else(PoisonError::into_inner).take() {
                        bytes += item.nbytes();
                        items.push(item);
                    }
                }
                if src != me {
                    rank.charge_receive(sent + net.p2p(bytes), bytes);
                }
                bounds.push(items.len());
            }
            (items, bounds)
        })
    }
}

/// One sender's `alltoallv` deposit, in one allocation: a batch slot per
/// destination, then its items in destination order. Empty if `fault`.
struct Outbox<M> {
    slots: Vec<Slot<M>>,
    fault: Option<String>,
}

enum Slot<M> {
    /// Destination d's batch, in slot d: its items' range among the item
    /// slots and when its send left (virtual time).
    Batch { start: usize, end: usize, sent: f64 },
    /// An item, taken once, by its destination.
    Item(Mutex<Option<M>>),
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    use apc_par::SplitMix64;

    use crate::meter::Meter;
    use crate::netmodel::NetModel;
    use crate::p2p::Tag;
    use crate::runtime::{Rank, Runtime};

    #[test]
    fn barrier_synchronizes_clocks() {
        let clocks = Runtime::new(4, NetModel::blue_waters()).run(|rank| {
            rank.advance(rank.rank() as f64); // rank 3 is slowest: clock 3.0
            rank.barrier();
            rank.clock()
        });
        for c in &clocks {
            assert!(*c >= 3.0, "clock {c} not synchronized to slowest rank");
            assert!((*c - 3.0) < 1e-3, "barrier cost should be tiny, got {c}");
        }
        assert_eq!(clocks[0], clocks[3]);
    }

    #[test]
    fn every_collective_is_one_meeting() {
        let mut session = Runtime::new(4, NetModel::blue_waters()).session();
        let mut meetings_of = |collective: &(dyn Fn(&mut Rank) + Sync)| {
            let before = session.meetings();
            session.run(collective);
            session.meetings() - before
        };
        assert_eq!(meetings_of(&|rank| _ = rank.barrier()), 1);
        assert_eq!(meetings_of(&|rank| _ = rank.allgather(1u8)), 1);
        assert_eq!(meetings_of(&|rank| _ = rank.allreduce(1u8, u8::max)), 1);
        let all_to_zero = |rank: &mut Rank| _ = rank.alltoallv(vec![1u8; 3], &[0; 3]);
        assert_eq!(meetings_of(&all_to_zero), 1);
    }

    #[test]
    fn allgather_rank_order() {
        let out = Runtime::new(4, NetModel::free()).run(|rank| rank.allgather(rank.rank() as u32));
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn collectives_clone_only_what_they_return() {
        use crate::meter::Meter;
        use crate::sort::gather_sort_broadcast;
        use std::cmp::Ordering::Equal;
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

        static CLONES: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Relaxed);
                Counted
            }
        }
        impl Meter for Counted {
            fn nbytes(&self) -> usize {
                1
            }
        }

        let mut session = Runtime::new(8, NetModel::free()).session();
        let mut clones_of = |collective: &(dyn Fn(&mut crate::Rank) + Sync)| {
            CLONES.store(0, Relaxed);
            session.run(collective);
            CLONES.load(Relaxed)
        };
        // One sort of every pair, shared by every rank: one clone each.
        assert_eq!(
            clones_of(&|rank| {
                let sorted = gather_sort_broadcast(rank, vec![Counted], |_, _| Equal);
                assert_eq!(sorted.len(), 8);
            }),
            8
        );
        // Everyone gets everything: N² by contract.
        assert_eq!(
            clones_of(&|rank| assert_eq!(rank.allgather(Counted).len(), 8)),
            64
        );
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = Runtime::new(8, NetModel::free()).run(|rank| {
            let sum = rank.allreduce(rank.rank() as u64, |a, b| a + b);
            let max = rank.allreduce(rank.rank() as f64, f64::max);
            (sum, max)
        });
        for (sum, max) in out {
            assert_eq!(sum, 28);
            assert_eq!(max, 7.0);
        }
    }

    #[test]
    fn alltoallv_exchanges_batches() {
        let out = Runtime::new(3, NetModel::blue_waters()).run(|rank| {
            let me = rank.rank() as u32;
            // Send `d` copies of my id to rank d, highest rank first.
            let dests: Vec<usize> = (0..3).rev().flat_map(|d| vec![d; d]).collect();
            rank.alltoallv(vec![me; dests.len()], &dests)
        });
        for (r, (incoming, bounds)) in out.iter().enumerate() {
            assert_eq!(bounds, &[0, r, 2 * r, 3 * r], "rank {r}");
            for (src, batch) in bounds.windows(2).map(|w| &incoming[w[0]..w[1]]).enumerate() {
                assert!(
                    batch.iter().all(|&v| v == src as u32),
                    "rank {r} from {src}"
                );
            }
        }
    }

    /// The nested exchange over the flat `alltoallv`: `outgoing[d]` goes
    /// to rank d, and the result is indexed by source rank.
    fn alltoallv_nested<M: Meter + Send + 'static>(
        rank: &mut Rank,
        outgoing: Vec<Vec<M>>,
    ) -> Vec<Vec<M>> {
        let dests: Vec<usize> = (outgoing.iter().enumerate())
            .flat_map(|(dst, batch)| vec![dst; batch.len()])
            .collect();
        let (items, bounds) = rank.alltoallv(outgoing.into_iter().flatten().collect(), &dests);
        let mut items = items.into_iter();
        (bounds.windows(2))
            .map(|w| items.by_ref().take(w[1] - w[0]).collect())
            .collect()
    }

    /// The send/recv exchange `alltoallv` was before its batches moved
    /// onto the rendezvous: the reference its clock replay must equal.
    #[expect(
        clippy::needless_range_loop,
        reason = "loop variables double as rank ids for addressing, not just indices"
    )]
    fn alltoallv_by_p2p<M: Meter + Send + 'static>(
        rank: &mut Rank,
        mut outgoing: Vec<Vec<M>>,
    ) -> Vec<Vec<M>> {
        const TAG: Tag = Tag(77);
        let (n, me) = (rank.nranks(), rank.rank());
        let mut incoming: Vec<Vec<M>> = (0..n).map(|_| Vec::new()).collect();
        incoming[me] = std::mem::take(&mut outgoing[me]);
        // Post all sends first (they never block), then drain receives.
        for dst in 0..n {
            if dst != me {
                let batch = std::mem::take(&mut outgoing[dst]);
                rank.send(dst, TAG, batch);
            }
        }
        for src in 0..n {
            if src != me {
                incoming[src] = rank.recv::<Vec<M>>(src, TAG);
            }
        }
        incoming
    }

    /// Deliberately not `Clone`: batches move.
    #[derive(Debug, PartialEq)]
    struct Chunk(Vec<f32>);

    impl Meter for Chunk {
        fn nbytes(&self) -> usize {
            32 + self.0.nbytes()
        }
    }

    type Exchange = fn(&mut Rank, Vec<Vec<Chunk>>) -> Vec<Vec<Chunk>>;

    /// Three skewed exchanges of random shape per rank (empty batches,
    /// empty chunks, a self batch); every delivery and the clock after it.
    fn exchanges(n: usize, seed: u64, exchange: Exchange) -> Vec<Vec<(Vec<Vec<Chunk>>, u64)>> {
        // Paper scale: the additive ingest charge makes the order of a
        // receiver's merges and charges visible in the clock bits.
        Runtime::new(n, NetModel::blue_waters().for_paper_scale()).run(|rank| {
            let mut rng = SplitMix64::new(seed ^ ((rank.rank() as u64) << 32));
            (0..3)
                .map(|_| {
                    rank.advance(rng.next_f64() * 1e-3);
                    let outgoing = (0..n)
                        .map(|_| {
                            (0..rng.below(4))
                                .map(|_| Chunk(vec![rng.range_f32(-1.0, 1.0); rng.below(400)]))
                                .collect()
                        })
                        .collect();
                    (exchange(rank, outgoing), rank.clock().to_bits())
                })
                .collect()
        })
    }

    #[test]
    fn alltoallv_replays_the_p2p_exchange_bit_for_bit() {
        for (n, seed) in [(1, 11), (2, 12), (3, 13), (7, 14), (16, 15)] {
            assert_eq!(
                exchanges(n, seed, alltoallv_nested),
                exchanges(n, seed, alltoallv_by_p2p),
                "{n} ranks: payload order or clock bits differ from the p2p exchange"
            );
        }
    }

    /// An argument one rank gets wrong fails every rank right after the
    /// rendezvous, with the argument's own message — not the offender
    /// alone before it, stranding its peers until the run stalls.
    fn assert_fails_every_rank_at_once(expected: &str, job: impl Fn(&mut Rank) + Sync) {
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only wall clock: bounds how long the failure takes to surface"
        )]
        let t0 = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(4, NetModel::free()).run(job)
        }));
        let payload = caught.expect_err("a bad argument must fail the run");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains(expected), "expected {expected:?}, got: {msg}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the failure took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn a_bad_argument_on_one_rank_fails_every_rank_at_once() {
        // Rank 0's panic is the one `run` re-raises, so the offender is
        // always another rank: rank 0 must have seen the mistake itself.
        assert_fails_every_rank_at_once("invalid destination rank 4", |rank| {
            let dst = if rank.rank() == 2 { 4 } else { 0 };
            rank.alltoallv(vec![0u8], &[dst]);
        });
        assert_fails_every_rank_at_once("one destination per item", |rank| {
            let dests: &[usize] = if rank.rank() == 2 { &[0] } else { &[0, 1] };
            rank.alltoallv(vec![0u8; 2], dests);
        });
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let out = Runtime::new(4, NetModel::free()).run(|rank| {
            let a = rank.allgather(rank.rank() as u32);
            let b = rank.allgather((rank.rank() * 2) as u32);
            rank.barrier();
            let c = rank.allreduce(1u32, |x, y| x + y);
            (a, b, c)
        });
        for (a, b, c) in out {
            assert_eq!(a, vec![0, 1, 2, 3]);
            assert_eq!(b, vec![0, 2, 4, 6]);
            assert_eq!(c, 4);
        }
    }

    #[test]
    fn collectives_are_stable_across_session_runs() {
        // The same collective sequence, repeated over one persistent
        // session, must see fresh slots and clocks every run.
        let mut session = Runtime::new(4, NetModel::free()).session();
        let mut previous = None;
        for _ in 0..3 {
            let out = session.run(|rank| {
                let g = rank.allgather(rank.rank() as u32);
                let s = rank.allreduce(1u64, |a, b| a + b);
                rank.barrier();
                (g, s, rank.clock())
            });
            assert_eq!(out[0].0, vec![0, 1, 2, 3]);
            assert_eq!(out[0].1, 4);
            if let Some(prev) = &previous {
                assert_eq!(prev, &out, "session runs must be identical");
            }
            previous = Some(out);
        }
    }

    #[test]
    fn collective_charges_network_time() {
        let net = NetModel {
            latency: 1e-3,
            bandwidth: 1e6,
            ..NetModel::free()
        };
        let clocks = Runtime::new(4, net).run(|rank| {
            let _ = rank.allgather(vec![0.0f32; 250]); // 1000 bytes each
            rank.clock()
        });
        // allgather model: depth(4)=2 * 1ms + 3/4 * 4000B / 1e6 B/s = 5 ms.
        for c in clocks {
            assert!((c - 0.005).abs() < 1e-9, "clock = {c}");
        }
    }
}

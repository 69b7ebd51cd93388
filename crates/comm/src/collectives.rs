//! Collective operations over the rank group.
//!
//! All collectives must be called by every rank in the same order (the usual
//! MPI contract). Data moves through a shared-memory rendezvous; *time*
//! moves through the [`crate::NetModel`] collective cost formulas, and every
//! collective max-synchronizes the participating virtual clocks first —
//! which is what makes "the pipeline is as slow as its slowest rank"
//! (paper §IV-D) hold in the simulation.

use std::any::Any;
use std::marker::PhantomData;

use crate::meter::Meter;
use crate::p2p::Tag;
use crate::runtime::{Contribution, Rank};

/// What one rendezvous' ranks deposited, by rank. Handed to the reader
/// closure of [`Rank::rendezvous`] by reference, so a collective clones
/// only the entries it returns.
pub(crate) struct Deposits<'a, I> {
    slots: &'a [Option<Contribution>],
    _payload: PhantomData<fn() -> I>,
}

impl<'a, I: 'static> Deposits<'a, I> {
    pub(crate) fn get(&self, rank: usize) -> &'a I {
        let (_, _, payload) = self.slots[rank]
            .as_ref()
            // apc-lint: allow(unwrap-in-lib): the rendezvous barrier guarantees every rank deposited its slot
            .expect("missing collective contribution");
        payload
            .downcast_ref::<I>()
            // apc-lint: allow(unwrap-in-lib): SPMD contract — every rank calls the same collective with the same type
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
    /// rank order), and return that with the maximum participating clock.
    /// Contributions carry the session-run epoch so a slot left over from
    /// another run can never be mistaken for this run's data.
    ///
    /// `read` runs under the slot lock: it must not panic on anything a
    /// caller's argument controls (validate after the rendezvous instead,
    /// so every rank fails together rather than on a poisoned lock).
    pub(crate) fn rendezvous<I, R>(
        &mut self,
        x: I,
        read: impl FnOnce(&Deposits<'_, I>) -> R,
    ) -> (R, f64)
    where
        I: Send + 'static,
    {
        {
            // apc-lint: allow(unwrap-in-lib): mutex poisoning means another rank already panicked; propagate the abort
            let mut slots = self.shared.slots.lock().unwrap();
            debug_assert!(slots[self.id].is_none(), "collective slot already full");
            slots[self.id] = Some((self.epoch, self.clock, Box::new(x) as Box<dyn Any + Send>));
        }
        self.shared.barrier.wait();
        let out = {
            // apc-lint: allow(unwrap-in-lib): mutex poisoning means another rank already panicked; propagate the abort
            let slots = self.shared.slots.lock().unwrap();
            let mut max_clock = f64::MIN;
            for slot in slots.iter() {
                // apc-lint: allow(unwrap-in-lib): the barrier above guarantees every rank deposited its slot
                let (epoch, t, _) = slot.as_ref().expect("missing collective contribution");
                assert_eq!(
                    *epoch, self.epoch,
                    "collective contribution from another session run"
                );
                max_clock = max_clock.max(*t);
            }
            let deposits = Deposits {
                slots: &slots,
                _payload: PhantomData,
            };
            (read(&deposits), max_clock)
        };
        self.shared.barrier.wait();
        // Everyone has read; reclaim our own slot for the next collective.
        // apc-lint: allow(unwrap-in-lib): mutex poisoning means another rank already panicked; propagate the abort
        self.shared.slots.lock().unwrap()[self.id] = None;
        out
    }

    /// Synchronize all ranks (and their clocks).
    pub fn barrier(&mut self) {
        let n = self.nranks();
        let ((), max_clock) = self.rendezvous((), |_| ());
        self.clock = max_clock + self.net().barrier(n);
    }

    /// Broadcast `root`'s value to every rank. Non-root ranks pass `None`.
    pub fn broadcast<M: Meter + Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: Option<M>,
    ) -> M {
        assert!(root < self.nranks(), "invalid root rank {root}");
        assert_eq!(
            value.is_some(),
            self.id == root,
            "exactly the root must supply a value"
        );
        let n = self.nranks();
        let (out, max_clock) = self.rendezvous(value, |all| all.get(root).clone());
        // apc-lint: allow(unwrap-in-lib): asserted above — the root passed Some and root < nranks
        let out = out.expect("root supplied no value");
        self.clock = max_clock + self.net().broadcast(n, out.nbytes());
        out
    }

    /// Gather every rank's value; all ranks receive the full vector in rank
    /// order.
    pub fn allgather<M: Meter + Clone + Send + 'static>(&mut self, value: M) -> Vec<M> {
        let n = self.nranks();
        let (vals, max_clock) = self.rendezvous(value, collect);
        let total: usize = vals.iter().map(Meter::nbytes).sum();
        self.clock = max_clock + self.net().allgather(n, total);
        vals
    }

    /// Gather to `root` only; other ranks get `None`. (The data motion in the
    /// simulation is shared-memory either way; the *charged* time follows the
    /// gather model, which we approximate with the allgather formula.)
    pub fn gather<M: Meter + Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: M,
    ) -> Option<Vec<M>> {
        assert!(root < self.nranks(), "invalid root rank {root}");
        let n = self.nranks();
        let is_root = self.id == root;
        let ((vals, total), max_clock) = self.rendezvous(value, |all| {
            let total: usize = all.iter().map(Meter::nbytes).sum();
            (is_root.then(|| collect(all)), total)
        });
        self.clock = max_clock + self.net().allgather(n, total);
        vals
    }

    /// Scatter: the root supplies one value per rank; every rank receives
    /// its own entry. Non-root ranks pass `None`.
    pub fn scatter<M: Meter + Clone + Send + 'static>(
        &mut self,
        root: usize,
        values: Option<Vec<M>>,
    ) -> M {
        assert!(root < self.nranks(), "invalid root rank {root}");
        assert_eq!(
            values.is_some(),
            self.id == root,
            "exactly the root must supply values"
        );
        let n = self.nranks();
        let me = self.id;
        let ((mine, len, total), max_clock) = self.rendezvous(values, |all| {
            // apc-lint: allow(unwrap-in-lib): asserted above — the root passed Some and root < nranks
            let all = all.get(root).as_ref().expect("root supplied values");
            (all.get(me).cloned(), all.len(), all.nbytes())
        });
        // Validate *after* the rendezvous so a bad argument panics on every
        // rank together instead of deadlocking the barrier.
        assert_eq!(len, n, "scatter needs one value per rank");
        // Tree scatter moves ~the full payload out of the root.
        self.clock = max_clock + self.net().allgather(n, total);
        // apc-lint: allow(unwrap-in-lib): the length assert above guarantees an element at self.id
        mine.expect("one value per rank")
    }

    /// Reduce to `root` only (folded in rank order); other ranks get
    /// `None`. Charged like half an allreduce (no result distribution).
    pub fn reduce<M, F>(&mut self, root: usize, value: M, op: F) -> Option<M>
    where
        M: Meter + Clone + Send + 'static,
        F: FnMut(M, M) -> M,
    {
        assert!(root < self.nranks(), "invalid root rank {root}");
        let n = self.nranks();
        let bytes = value.nbytes();
        let is_root = self.id == root;
        let (vals, max_clock) = self.rendezvous(value, |all| is_root.then(|| collect(all)));
        self.clock = max_clock + self.net().allreduce(n, bytes) / 2.0;
        vals.map(|vals| {
            vals.into_iter()
                .reduce(op)
                // apc-lint: allow(unwrap-in-lib): a runtime always has at least one rank
                .expect("reduce over empty group")
        })
    }

    /// Reduce all values with `op` (folded in rank order — deterministic);
    /// every rank receives the result.
    pub fn allreduce<M, F>(&mut self, value: M, op: F) -> M
    where
        M: Meter + Clone + Send + 'static,
        F: FnMut(M, M) -> M,
    {
        let n = self.nranks();
        let bytes = value.nbytes();
        let (vals, max_clock) = self.rendezvous(value, collect);
        self.clock = max_clock + self.net().allreduce(n, bytes);
        let mut it = vals.into_iter();
        // apc-lint: allow(unwrap-in-lib): a runtime always has at least one rank
        let first = it.next().expect("allreduce over empty group");
        it.fold(first, {
            let mut op = op;
            move |acc, v| op(acc, v)
        })
    }

    /// Exclusive prefix scan: rank `r` receives `op(v_0, ..., v_{r-1})`,
    /// rank 0 receives `None`.
    pub fn exclusive_scan<M, F>(&mut self, value: M, mut op: F) -> Option<M>
    where
        M: Meter + Clone + Send + 'static,
        F: FnMut(M, M) -> M,
    {
        let n = self.nranks();
        let bytes = value.nbytes();
        let (vals, max_clock) = self.rendezvous(value, collect);
        self.clock = max_clock + self.net().allreduce(n, bytes);
        let mut acc: Option<M> = None;
        for v in vals.into_iter().take(self.id) {
            acc = Some(match acc {
                None => v,
                Some(a) => op(a, v),
            });
        }
        acc
    }

    /// Personalized all-to-all with variable counts: `outgoing[d]` is the
    /// batch of items for rank `d` (including `d == self`, moved locally).
    /// Returns the incoming batches indexed by source rank.
    ///
    /// Unlike the other collectives this one really moves the data through
    /// the point-to-point layer, so per-message sizes are charged
    /// individually — this is the primitive behind the paper's block
    /// redistribution (§IV-D: "a series of nonblocking receives ... and a
    /// series of nonblocking sends").
    // Loop variables double as rank ids for addressing, not just indices.
    #[allow(clippy::needless_range_loop)]
    pub fn alltoallv<M: Meter + Clone + Send + 'static>(
        &mut self,
        mut outgoing: Vec<Vec<M>>,
    ) -> Vec<Vec<M>> {
        let n = self.nranks();
        assert_eq!(
            outgoing.len(),
            n,
            "alltoallv needs one outgoing batch per rank"
        );
        let mut incoming: Vec<Vec<M>> = (0..n).map(|_| Vec::new()).collect();
        incoming[self.id] = std::mem::take(&mut outgoing[self.id]);
        // Post all sends first (non-blocking), then drain receives.
        for dst in 0..n {
            if dst != self.id {
                let batch = std::mem::take(&mut outgoing[dst]);
                self.isend(dst, Tag::ALLTOALLV, batch);
            }
        }
        for src in 0..n {
            if src != self.id {
                incoming[src] = self.recv::<Vec<M>>(src, Tag::ALLTOALLV);
            }
        }
        incoming
    }
}

#[cfg(test)]
mod tests {
    use crate::netmodel::NetModel;
    use crate::runtime::Runtime;

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
    fn broadcast_delivers_root_value() {
        let out = Runtime::new(4, NetModel::free()).run(|rank| {
            let v = if rank.rank() == 2 {
                Some(vec![9u32, 8, 7])
            } else {
                None
            };
            rank.broadcast(2, v)
        });
        for v in out {
            assert_eq!(v, vec![9, 8, 7]);
        }
    }

    #[test]
    fn allgather_rank_order() {
        let out = Runtime::new(4, NetModel::free()).run(|rank| rank.allgather(rank.rank() as u32));
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn gather_only_root_receives() {
        let out = Runtime::new(3, NetModel::free()).run(|rank| rank.gather(1, rank.rank() as u64));
        assert_eq!(out[0], None);
        assert_eq!(out[1], Some(vec![0, 1, 2]));
        assert_eq!(out[2], None);
    }

    #[test]
    fn collectives_clone_only_what_they_return() {
        use crate::meter::Meter;
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
        // Root-only results are cloned by the root only (was 8 × 8).
        assert_eq!(
            clones_of(&|rank| assert_eq!(rank.gather(3, Counted).is_some(), rank.rank() == 3)),
            8
        );
        assert_eq!(
            clones_of(&|rank| {
                let folded = rank.reduce(3, Counted, |a, _| a);
                assert_eq!(folded.is_some(), rank.rank() == 3);
            }),
            8
        );
        // One entry per rank (was 8 × 8).
        assert_eq!(
            clones_of(&|rank| {
                let _: Counted = rank.broadcast(3, (rank.rank() == 3).then_some(Counted));
            }),
            8
        );
        assert_eq!(
            clones_of(&|rank| {
                let values = (rank.rank() == 3).then(|| vec![Counted; 8]);
                let _: Counted = rank.scatter(3, values);
            }),
            7 + 8,
            "vec![x; 8] itself clones 7 times at the root"
        );
        // Everyone gets everything: N² by contract.
        assert_eq!(
            clones_of(&|rank| assert_eq!(rank.allgather(Counted).len(), 8)),
            64
        );
    }

    #[test]
    fn scatter_delivers_per_rank_values() {
        let out = Runtime::new(4, NetModel::free()).run(|rank| {
            let v = (rank.rank() == 1).then(|| vec![10u32, 11, 12, 13]);
            rank.scatter(1, v)
        });
        assert_eq!(out, vec![10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "one value per rank")]
    fn scatter_validates_length() {
        Runtime::new(3, NetModel::free()).run(|rank| {
            let v = (rank.rank() == 0).then(|| vec![1u32, 2]);
            rank.scatter(0, v)
        });
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let out = Runtime::new(5, NetModel::free())
            .run(|rank| rank.reduce(2, rank.rank() as u64 + 1, |a, b| a + b));
        assert_eq!(out, vec![None, None, Some(15), None, None]);
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
    fn exclusive_scan_prefixes() {
        let out =
            Runtime::new(4, NetModel::free()).run(|rank| rank.exclusive_scan(1u32, |a, b| a + b));
        assert_eq!(out, vec![None, Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn alltoallv_exchanges_batches() {
        let out = Runtime::new(3, NetModel::blue_waters()).run(|rank| {
            let me = rank.rank() as u32;
            // Send `d` copies of my id to rank d.
            let outgoing: Vec<Vec<u32>> = (0..3).map(|d| vec![me; d]).collect();
            rank.alltoallv(outgoing)
        });
        for (r, incoming) in out.iter().enumerate() {
            for (src, batch) in incoming.iter().enumerate() {
                assert_eq!(batch.len(), r, "rank {r} from {src}");
                assert!(batch.iter().all(|&v| v == src as u32));
            }
        }
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

//! Lapping stress: the one hazard a single-phase rendezvous introduces.
//!
//! With no second phase holding everyone back, a fast rank leaves
//! collective *k*, runs its compute and arrives at collective *k + 1*
//! while a slow peer has not yet taken *k*'s release from its mailbox. The
//! two collectives must stay apart: what the slow rank takes is still
//! round *k*'s release, and the fast rank's new deposit is never part of
//! it. And a release shares its rank's mailbox with point-to-point
//! envelopes, so one round kind crosses a collective with ring messages.
//! Every payload here carries its round number, so one mixed collective, a
//! release taken as a message or a message consumed by a collective shows
//! as a `k ± 1` in somebody's result.

use std::hint::spin_loop;
use std::thread::yield_now;

use apc_comm::{NetModel, Rank, Runtime, Tag};

/// Rank- and round-dependent wall-clock skew in front of a collective:
/// some ranks give up their time slice, some burn a little of it, most
/// run straight through — so on any round some ranks are a full
/// collective ahead of others.
fn skew(r: usize, k: usize) {
    match (r * 31 + k * 17) % 7 {
        0 => yield_now(),
        1 => (0..(r * 13 + k) % 300).for_each(|_| spin_loop()),
        2 => (0..3).for_each(|_| yield_now()),
        _ => {}
    }
}

/// Round `k`: one collective of rotating kind whose every delivered value
/// names the round and the rank it came from; the last kind sends the ring
/// neighbour a message before its collective and receives one after.
fn round(rank: &mut Rank, k: u64) {
    let (r, n) = (rank.rank() as u64, rank.nranks() as u64);
    skew(r as usize, k as usize);
    match k % 6 {
        0 => {
            let all = rank.allgather((k, r));
            let expect: Vec<(u64, u64)> = (0..n).map(|src| (k, src)).collect();
            assert_eq!(all, expect, "allgather of round {k} on rank {r}");
        }
        1 => rank.barrier(),
        2 => {
            let sum = rank.allreduce(k * (r + 1), |a, b| a + b);
            assert_eq!(sum, k * n * (n + 1) / 2, "allreduce of round {k}");
        }
        3 => {
            let root = k % n;
            let got = rank.gather(root as usize, (k, r));
            let expect = (r == root).then(|| (0..n).map(|src| (k, src)).collect());
            assert_eq!(got, expect, "gather of round {k} on rank {r}");
        }
        4 => {
            let outgoing = (0..n).map(|dst| vec![(k, r, dst)]).collect();
            for (src, batch) in rank.alltoallv(outgoing).into_iter().enumerate() {
                assert_eq!(batch, [(k, src as u64, r)], "alltoallv of round {k}");
            }
        }
        _ => {
            let (next, prev) = ((r + 1) % n, (r + n - 1) % n);
            rank.send(next as usize, Tag(0), (k, r));
            let all = rank.allgather((k, r));
            let expect: Vec<(u64, u64)> = (0..n).map(|src| (k, src)).collect();
            assert_eq!(all, expect, "allgather between ring messages of round {k}");
            let got: (u64, u64) = rank.recv(prev as usize, Tag(0));
            assert_eq!(got, (k, prev), "ring message of round {k} on rank {r}");
        }
    }
}

#[test]
fn back_to_back_collectives_never_mix_generations() {
    for n in [1, 2, 3, 64] {
        Runtime::new(n, NetModel::free()).run(|rank| (0..5_000).for_each(|k| round(rank, k)));
    }
}

#[test]
fn reused_sessions_start_every_run_with_fresh_deposits() {
    for n in [1, 2, 3, 64] {
        let mut session = Runtime::new(n, NetModel::free()).session();
        for run in 0..50 {
            // A different phase of the rotation every run, and a last
            // collective whose deposits the next run must not see.
            session.run(|rank| (run..run + 100).for_each(|k| round(rank, k)));
        }
    }
}

//! Distributed sorting of `<block id, score>` pairs.
//!
//! The paper (§IV-C) globally sorts all pairs by increasing score and
//! broadcasts the sorted array to every rank. We provide the paper's
//! gather-sort-broadcast, one rendezvous whose first reader sorts for every
//! rank, and, as an ablation (the `ablations` binary), a real parallel
//! *sample sort* whose final allgather yields the same
//! everyone-has-everything result. Each ends in a collective that charges
//! every rank the same, so every rank leaves either sort at one clock —
//! what lets the pipeline's next step boundary skip its meeting. The
//! gather-sort-broadcast also *opens* with its meeting, so the boundary
//! before it is the barrier's charge and the sort's meeting clock
//! ([`Rank::met_at`]); the sample sort opens with a local sort, so the
//! boundary before it still meets.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use crate::meter::Meter;
use crate::runtime::Rank;

/// Cost charged per element of a comparison sort, seconds. Calibrated to a
/// few tens of ns per element per log-level — negligible next to rendering,
/// as the paper observes.
pub const SORT_COST_PER_ELEM: f64 = 2.5e-8;

fn sort_compute_cost(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    n as f64 * (n as f64).log2() * SORT_COST_PER_ELEM
}

/// The paper's strategy: gather all pairs, sort at the root, broadcast the
/// sorted array back. Every rank returns the full sorted array — the same
/// `Arc<[K]>`, sorted and its metered bytes summed once, in one
/// rendezvous: each rank deposits its pairs next to an empty cell, and the
/// first rank to read sorts every deposit, in rank order, into the root's
/// cell; the others take a reference count from it. Should the sort panic,
/// the cell stays empty and every rank in turn sorts and fails.
///
/// Virtual time is the same three charges on every rank, so every rank
/// leaves at one clock: the gather's clock synchronization and transfer,
/// the root's sort (it gates everyone waiting on the broadcast, so
/// charging it uniformly is equivalent under max-sync), and the broadcast
/// of the sorted array.
///
/// `cmp` must be a total order (ties broken deterministically by the
/// caller, e.g. by block id — §IV-C).
pub fn gather_sort_broadcast<K, F>(rank: &mut Rank, local: Vec<K>, cmp: F) -> Arc<[K]>
where
    K: Meter + Clone + Send + Sync + 'static,
    F: Fn(&K, &K) -> Ordering,
{
    const ROOT: usize = 0;
    let n = rank.nranks();
    let net = rank.net();
    let deposit = (local, OnceLock::<(Arc<[K]>, usize)>::new());
    let (all, bytes) = rank.rendezvous(deposit, |_, deposits| {
        let (_, sorted) = deposits.get(ROOT);
        let (all, bytes) = sorted.get_or_init(|| {
            let mut all: Vec<K> = deposits.iter().flat_map(|(v, _)| v).cloned().collect();
            all.sort_by(&cmp);
            let bytes = all.iter().map(Meter::nbytes).sum();
            (Arc::from(all), bytes)
        });
        (Arc::clone(all), *bytes)
    });
    // The gathered pairs are the sorted ones: one byte count for both.
    rank.clock = rank.met_at + net.allgather(n, bytes);
    rank.advance(sort_compute_cost(all.len()));
    rank.advance(net.broadcast(n, bytes));
    all
}

/// Parallel sample sort (ablation): local sort, regular sampling, splitter
/// selection, bucket exchange via [`Rank::alltoallv`], local merge, and a
/// final allgather so every rank holds the full sorted vector — the same
/// contents as [`gather_sort_broadcast`], in a vector of its own per rank.
pub fn sample_sort<K, F>(rank: &mut Rank, mut local: Vec<K>, cmp: F) -> Vec<K>
where
    K: Meter + Clone + Send + Sync + 'static,
    F: Fn(&K, &K) -> Ordering,
{
    let n = rank.nranks();
    if n == 1 {
        rank.advance(sort_compute_cost(local.len()));
        local.sort_by(&cmp);
        return local;
    }

    rank.advance(sort_compute_cost(local.len()));
    local.sort_by(&cmp);

    // Regular sampling: n samples per rank (with repetition if short).
    let samples: Vec<K> = if local.is_empty() {
        Vec::new()
    } else {
        (0..n).map(|i| local[i * local.len() / n].clone()).collect()
    };
    let mut all_samples: Vec<K> = rank.allgather(samples).into_iter().flatten().collect();
    all_samples.sort_by(&cmp);

    // n-1 splitters at regular positions.
    let splitters: Vec<K> = if all_samples.is_empty() {
        Vec::new()
    } else {
        (1..n)
            .map(|i| all_samples[i * all_samples.len() / n].clone())
            .collect()
    };

    // Each item of the sorted local run goes to its bucket's rank.
    let mut b = 0;
    let buckets: Vec<usize> = local
        .iter()
        .map(|item| {
            while b < splitters.len() && cmp(item, &splitters[b]) != Ordering::Less {
                b += 1;
            }
            b
        })
        .collect();

    // Exchange buckets (charged per message).
    let (mut mine, _) = rank.alltoallv(local, &buckets);

    // Merge the sorted runs (charged as one comparison sort of the total).
    rank.advance(sort_compute_cost(mine.len()));
    mine.sort_by(&cmp);

    // Everyone needs the whole sorted list (paper contract): allgather and
    // concatenate — partitions are globally ordered by construction.
    rank.allgather(mine).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;
    use crate::runtime::Runtime;

    fn scored_pairs(rank: usize, n_per_rank: usize) -> Vec<(u32, f64)> {
        // Deterministic pseudo-random scores, distinct per (rank, i).
        (0..n_per_rank)
            .map(|i| {
                let id = (rank * n_per_rank + i) as u32;
                let score = ((id as f64 * 0.7371 + 0.213).sin() * 1000.0).round() / 10.0;
                (id, score)
            })
            .collect()
    }

    fn cmp_pairs(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
        // Increasing score; ties broken by id (paper §IV-C).
        a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
    }

    fn assert_sorted(v: &[(u32, f64)]) {
        assert!(v
            .windows(2)
            .all(|w| cmp_pairs(&w[0], &w[1]) != Ordering::Greater));
    }

    #[test]
    fn gsb_sorts_globally() {
        let out = Runtime::new(4, NetModel::blue_waters()).run(|rank| {
            let local = scored_pairs(rank.rank(), 25);
            gather_sort_broadcast(rank, local, cmp_pairs)
        });
        for v in &out {
            assert_eq!(v.len(), 100);
            assert_sorted(v);
        }
        assert_eq!(out[0], out[3], "all ranks must agree on the sorted list");
        for v in &out[1..] {
            assert!(
                Arc::ptr_eq(v, &out[0]),
                "every rank shares the root's array"
            );
        }
    }

    #[test]
    fn gsb_sorts_once_and_charges_every_rank_the_same() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let comparisons = AtomicUsize::new(0);
        let out = Runtime::new(8, NetModel::blue_waters()).run(|rank| {
            let local = scored_pairs(rank.rank(), 100);
            let sorted = gather_sort_broadcast(rank, local, |a, b| {
                comparisons.fetch_add(1, Relaxed);
                cmp_pairs(a, b)
            });
            (sorted, rank.clock().to_bits())
        });
        // One sort of n keys, not one per rank (which is ≈ 8·n·log₂n).
        let n = 800.0f64;
        let seen = comparisons.load(Relaxed) as f64;
        assert!(seen < 2.0 * n * n.log2(), "{seen} comparisons for {n} keys");
        assert_eq!(out[0].0.len(), 800);
        assert_sorted(&out[0].0);
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o, &out[0], "rank {r}");
        }
        // gather + sort + broadcast, as charged before the sort moved to
        // the root.
        assert_eq!(out[0].1, 0x3f2b_7f73_b51e_89f0, "clock {:#x}", out[0].1);
    }

    #[test]
    fn a_panicking_root_comparator_fails_the_run_instead_of_hanging() {
        // The first rank to read sorts and panics, leaving the root's cell
        // empty; each rank waiting on that cell then sorts in turn and
        // panics too, so every rank fails without waiting on another.
        use std::time::{Duration, Instant};
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only wall clock: bounds how long the stall takes to surface"
        )]
        let t0 = Instant::now();
        let caught = std::panic::catch_unwind(|| {
            Runtime::new(3, NetModel::free()).run(|rank| {
                gather_sort_broadcast(rank, scored_pairs(rank.rank(), 10), |_, _| {
                    panic!("comparator blew up")
                })
            });
        });
        assert!(caught.is_err(), "the run must fail, not hang");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the failure must arrive when the run stalls, took {:?}",
            t0.elapsed()
        );
    }

    /// Both sorts end in a collective that charges every rank the same, so
    /// whatever clocks the ranks enter with, they leave at one clock: the
    /// pipeline's step boundary after the sort is arithmetic on that.
    #[test]
    fn both_sorts_leave_every_rank_at_one_clock() {
        for net in [
            NetModel::blue_waters(),
            NetModel::blue_waters().for_paper_scale(),
        ] {
            for n in [1, 2, 3, 8, 64] {
                let clocks = Runtime::new(n, net).run(|rank| {
                    let r = rank.rank();
                    rank.advance(1e-4 * ((r * 7 + 3) % 11) as f64);
                    gather_sort_broadcast(rank, scored_pairs(r, r % 4 * 5), cmp_pairs);
                    let after_gsb = rank.clock().to_bits();
                    rank.advance(1e-4 * ((r * 5 + 1) % 13) as f64);
                    sample_sort(rank, scored_pairs(r, r % 3 * 7), cmp_pairs);
                    (after_gsb, rank.clock().to_bits())
                });
                for (r, c) in clocks.iter().enumerate() {
                    assert_eq!(c, &clocks[0], "{n} ranks: rank {r} left at another clock");
                }
            }
        }
    }

    #[test]
    fn gsb_meets_once_and_sample_sort_three_times() {
        let mut session = Runtime::new(8, NetModel::blue_waters()).session();
        let mut meetings_of = |sort: &(dyn Fn(&mut Rank) + Sync)| {
            let before = session.meetings();
            session.run(sort);
            session.meetings() - before
        };
        let gsb = meetings_of(&|rank| {
            gather_sort_broadcast(rank, scored_pairs(rank.rank(), 10), cmp_pairs);
        });
        assert_eq!(gsb, 1);
        // Samples allgathered, buckets exchanged, partitions allgathered.
        let ss = meetings_of(&|rank| {
            sample_sort(rank, scored_pairs(rank.rank(), 10), cmp_pairs);
        });
        assert_eq!(ss, 3);
    }

    #[test]
    fn sample_sort_matches_gsb() {
        let (a, b) = {
            let gsb = Runtime::new(4, NetModel::blue_waters())
                .run(|rank| gather_sort_broadcast(rank, scored_pairs(rank.rank(), 40), cmp_pairs));
            let ss = Runtime::new(4, NetModel::blue_waters())
                .run(|rank| sample_sort(rank, scored_pairs(rank.rank(), 40), cmp_pairs));
            (gsb, ss)
        };
        assert_eq!(a[0][..], b[0][..]);
        assert_eq!(b[0], b[2]);
        assert_sorted(&b[1]);
    }

    #[test]
    fn sample_sort_single_rank() {
        let out = Runtime::new(1, NetModel::free())
            .run(|rank| sample_sort(rank, scored_pairs(0, 10), cmp_pairs));
        assert_eq!(out[0].len(), 10);
        assert_sorted(&out[0]);
    }

    #[test]
    fn sample_sort_empty_input() {
        let out = Runtime::new(3, NetModel::free())
            .run(|rank| sample_sort(rank, Vec::<(u32, f64)>::new(), cmp_pairs));
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    fn uneven_inputs() {
        let out = Runtime::new(3, NetModel::free()).run(|rank| {
            let local = scored_pairs(rank.rank(), rank.rank() * 7); // 0, 7, 14 items
            sample_sort(rank, local, cmp_pairs)
        });
        assert_eq!(out[0].len(), 21);
        assert_sorted(&out[0]);
    }

    #[test]
    fn both_sorts_are_stable_across_session_runs() {
        // Sweeps re-run the global sort many times over one session; the
        // bucket exchange must not leak between runs.
        let mut session = Runtime::new(4, NetModel::blue_waters()).session();
        let gsb = session
            .run(|rank| gather_sort_broadcast(rank, scored_pairs(rank.rank(), 40), cmp_pairs));
        for _ in 0..2 {
            let ss =
                session.run(|rank| sample_sort(rank, scored_pairs(rank.rank(), 40), cmp_pairs));
            assert_eq!(
                gsb[0][..],
                ss[0][..],
                "session reuse must not perturb the sort"
            );
            assert_sorted(&ss[2]);
        }
    }

    #[test]
    fn sorting_charges_time() {
        let clocks = Runtime::new(2, NetModel::blue_waters()).run(|rank| {
            let t0 = rank.clock();
            let _ = gather_sort_broadcast(rank, scored_pairs(rank.rank(), 1000), cmp_pairs);
            rank.clock() - t0
        });
        assert!(clocks[0] > 0.0);
        // Must stay tiny relative to rendering (order of ms for 2k pairs).
        assert!(
            clocks[0] < 0.1,
            "sort cost unexpectedly large: {}",
            clocks[0]
        );
    }
}

//! A barrier is its charge paid before the meeting.
//!
//! A pipeline step boundary pays `NetModel::barrier(n)` on the rank's own
//! clock and takes the clock of the next meeting. Rounding `x + b` is
//! monotone in `x`, so the latest of the paid clocks is the slowest
//! arrival plus the charge bit for bit: paying and then entering a
//! collective leaves every rank where a `barrier()` and the same collective
//! would, with one meeting fewer, and the collective's meeting clock
//! ([`Rank::met_at`]) is the clock that barrier returned.

use std::cmp::Ordering;

use apc_comm::sort::gather_sort_broadcast;
use apc_comm::{NetModel, Rank, Runtime};

/// A clock per rank that differs in its low bits, so a boundary that
/// rounded differently from the barrier would show.
fn skew(rank: &mut Rank) {
    let r = rank.rank() as f64;
    rank.advance(0.3 + 1.7e-3 * (r * 0.61).sin().abs() + 2.9e-5 * r);
}

fn pairs(rank: usize) -> Vec<(u32, f64)> {
    (0..rank % 4 * 3)
        .map(|i| {
            let id = (rank * 16 + i) as u32;
            (id, (f64::from(id) * 0.7371).sin())
        })
        .collect()
}

fn by_score(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// The sort, then the counter allreduce: the two collectives a pipeline
/// boundary meets in.
fn collective(rank: &mut Rank, sort: bool) {
    if sort {
        gather_sort_broadcast(rank, pairs(rank.rank()), by_score);
    } else {
        rank.allreduce(rank.rank() as u64, |a, b| a + b);
    }
}

#[test]
fn paying_the_charge_then_meeting_is_a_barrier_then_the_meeting() {
    for net in [
        NetModel::blue_waters(),
        NetModel::blue_waters().for_paper_scale(),
    ] {
        for n in [1, 2, 3, 8, 64] {
            let mut session = Runtime::new(n, net).session();
            for sort in [true, false] {
                let case = format!("{n} ranks, {net:?}, sort {sort}");
                let before = session.meetings();
                let barrier = session.run(|rank| {
                    skew(rank);
                    let boundary = rank.barrier();
                    collective(rank, sort);
                    (boundary.to_bits(), rank.clock().to_bits())
                });
                let with_barrier = session.meetings() - before;

                let before = session.meetings();
                let paid = session.run(|rank| {
                    skew(rank);
                    rank.advance(rank.net().barrier(rank.nranks()));
                    collective(rank, sort);
                    (rank.met_at().to_bits(), rank.clock().to_bits())
                });
                let paid_meetings = session.meetings() - before;

                assert_eq!(paid, barrier, "{case}: (boundary, leaving clock) per rank");
                for (r, clocks) in paid.iter().enumerate() {
                    assert_eq!(clocks, &paid[0], "{case}: rank {r} left at another clock");
                }
                assert_eq!(with_barrier, 2, "{case}");
                assert_eq!(paid_meetings, 1, "{case}");
            }
        }
    }
}

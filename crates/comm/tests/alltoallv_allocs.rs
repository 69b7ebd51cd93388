//! `alltoallv` allocates O(n) per exchange, not O(n²): a handful of
//! buffers per rank, however many peers each rank sends to.
//!
//! A counting global allocator compares two runs over one 64-rank
//! session that build the same inputs — every rank sends two items to
//! every rank, in a scrambled order — and differ only in the collective:
//! an `alltoallv` against a `barrier`. The difference is what the
//! exchange itself allocates, its result included. This file holds one
//! test, so no other test's allocations land in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use apc_comm::{NetModel, Rank, Runtime, Session};

/// Counts every allocation and reallocation of the process.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments,
// so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 64;
const PER_PEER: usize = 2;

/// Rank `r`'s items and their destinations: `PER_PEER` for every rank.
fn inputs(r: usize) -> (Vec<u64>, Vec<usize>) {
    let dests: Vec<usize> = (0..N * PER_PEER).map(|k| (k * 7 + r) % N).collect();
    let items = (0..dests.len())
        .map(|k| (r * N * PER_PEER + k) as u64)
        .collect();
    (items, dests)
}

/// The fewest allocations one run of `job` made, over ten runs after a
/// warm-up: the runtime's own waits make a few allocations come and go
/// from run to run.
fn allocations(session: &mut Session, job: &(dyn Fn(&mut Rank) + Sync)) -> usize {
    session.run(job);
    (0..10)
        .map(|_| {
            let before = ALLOCATIONS.load(Relaxed);
            session.run(job);
            ALLOCATIONS.load(Relaxed) - before
        })
        .min()
        .unwrap_or(usize::MAX)
}

#[test]
fn alltoallv_allocates_o_n_not_o_n_squared() {
    let mut session = Runtime::new(N, NetModel::blue_waters()).session();
    let exchange = allocations(&mut session, &|rank| {
        let (items, dests) = inputs(rank.rank());
        let (received, bounds) = rank.alltoallv(items, &dests);
        assert_eq!(received.len(), N * PER_PEER);
        assert_eq!(bounds.len(), N + 1);
    });
    let barrier = allocations(&mut session, &|rank| {
        let (items, dests) = inputs(rank.rank());
        rank.barrier();
        assert_eq!((items.len(), dests.len()), (N * PER_PEER, N * PER_PEER));
    });
    let extra = exchange.saturating_sub(barrier);
    assert!(
        extra <= 3 * N,
        "alltoallv made {extra} allocations over a barrier's at {N} ranks (bound {})",
        3 * N
    );
}

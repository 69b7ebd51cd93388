//! `alltoallv` allocates O(n) per exchange, not O(n²): a handful of
//! buffers per rank, however many peers each rank sends to.
//!
//! A counting global allocator compares two collectives over one 64-rank
//! session: an `alltoallv` in which every rank sends two items to every
//! rank, in a scrambled order, against a `barrier`. Only allocations a rank
//! thread makes inside the measured collective count — a guard raises a
//! thread-local flag around the call — so the inputs, the session's job and
//! status channels and the test harness's own threads stay out of both
//! counts. The difference is what the exchange itself allocates, its
//! result included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use apc_comm::{NetModel, Rank, Runtime, Session};

/// Counts every allocation and reallocation made while this thread's
/// [`MEASURING`] flag is up.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Raised by a [`Measured`] guard. Const-initialised and without a
    /// destructor, so the allocator reads it without allocating.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments,
// so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counts this thread's allocations from its creation to its drop.
struct Measured;

impl Measured {
    fn start() -> Self {
        MEASURING.set(true);
        Measured
    }
}

impl Drop for Measured {
    fn drop(&mut self) {
        MEASURING.set(false);
    }
}

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

/// The fewest measured allocations one run of `job` made, over ten runs
/// after a warm-up (with only the collective counted, every run has read
/// the same: 3 a rank for the exchange over the barrier's at 64 ranks).
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
        let (received, bounds) = {
            let _measured = Measured::start();
            rank.alltoallv(items, &dests)
        };
        assert_eq!(received.len(), N * PER_PEER);
        assert_eq!(bounds.len(), N + 1);
    });
    let barrier = allocations(&mut session, &|rank| {
        let _measured = Measured::start();
        rank.barrier();
    });
    let extra = exchange.saturating_sub(barrier);
    assert!(
        extra <= 3 * N,
        "alltoallv made {extra} allocations over a barrier's at {N} ranks (bound {})",
        3 * N
    );
}

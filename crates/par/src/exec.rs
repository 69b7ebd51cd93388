//! [`ExecPolicy`] and the deterministic parallel map.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a rank executes its per-block kernels.
///
/// Carried by `apc_core::PipelineConfig` and threaded through every kernel
/// batch entry point ([`par_map`] callers). The policy changes *wall-clock*
/// time only: virtual-time accounting is summed from per-block counters, so
/// `Serial` and `Threads(n)` produce byte-identical experiment reports (a
/// regression test in the umbrella crate guards this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// Run kernels on the rank's own thread (the seed behavior).
    #[default]
    Serial,
    /// Fan each per-block loop out over `n` scoped worker threads.
    /// `Threads(0)` and `Threads(1)` degenerate to [`ExecPolicy::Serial`].
    Threads(usize),
}

impl ExecPolicy {
    /// A policy using every core the OS reports.
    pub fn auto() -> Self {
        ExecPolicy::Threads(available_cores())
    }

    /// Worker count this policy fans out to (1 for `Serial`).
    pub fn threads(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
        }
    }

    /// Cap the pool so that `nranks × threads` does not exceed the
    /// machine's cores. The simulated communicator already runs one OS
    /// thread per rank; giving each of those a full-size pool would
    /// oversubscribe the host and slow everything down. Experiment drivers
    /// call this with the runtime's rank count before entering the
    /// pipeline.
    pub fn clamp_for_ranks(self, nranks: usize) -> Self {
        match self {
            ExecPolicy::Serial => ExecPolicy::Serial,
            ExecPolicy::Threads(n) => match n.min(thread_budget(nranks)) {
                0 | 1 => ExecPolicy::Serial,
                m => ExecPolicy::Threads(m),
            },
        }
    }

    /// Resolve this policy against a kernel's [`RecommendedConcurrency`]:
    /// never exceed what the kernel can use.
    pub fn for_kernel(self, rec: RecommendedConcurrency) -> Self {
        match self {
            ExecPolicy::Serial => ExecPolicy::Serial,
            ExecPolicy::Threads(n) => match n.min(rec.preferred.get()) {
                0 | 1 => ExecPolicy::Serial,
                m => ExecPolicy::Threads(m),
            },
        }
    }
}

/// Number of cores the OS reports (1 if unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Per-rank worker-thread budget for `nranks` concurrently running rank
/// threads: `max(1, cores / nranks)`. The single implementation of the
/// oversubscription rule; [`ExecPolicy::clamp_for_ranks`] applies it.
pub fn thread_budget(nranks: usize) -> usize {
    (available_cores() / nranks.max(1)).max(1)
}

/// How much parallelism a kernel can profitably use for a given input —
/// the zarrs-codec idiom: each kernel knows its own granularity, the
/// harness combines it with the global policy via
/// [`ExecPolicy::for_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecommendedConcurrency {
    /// Sweet spot for this input size.
    pub preferred: NonZeroUsize,
}

impl RecommendedConcurrency {
    /// Recommend one worker per `items_per_thread` items.
    ///
    /// Deliberately *not* capped at the machine's core count: the
    /// recommendation expresses kernel granularity only. Machine capacity
    /// is the caller's dimension ([`ExecPolicy::clamp_for_ranks`]); folding
    /// it in here would silently re-serialize `Threads(n)` on small hosts
    /// and make the policy-determinism guards compare Serial to Serial.
    pub fn per_items(total_items: usize, items_per_thread: usize) -> Self {
        let pref = (total_items / items_per_thread.max(1)).max(1);
        Self {
            preferred: NonZeroUsize::new(pref).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// A strictly serial recommendation.
    pub fn serial() -> Self {
        Self {
            preferred: NonZeroUsize::MIN,
        }
    }
}

/// Map `f` over `items` under `policy`; results come back in input order.
///
/// The parallel backend hands out dynamically-sized index chunks through an
/// atomic cursor (so uneven per-item cost — e.g. storm-center blocks
/// producing far more triangles than clear-air blocks — still balances),
/// then reassembles the chunks by start index. Panics in workers propagate
/// to the caller.
pub fn par_map<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(policy, items, |_, item| f(item))
}

/// [`par_map`] variant whose kernel also receives the item index.
pub fn par_map_indexed<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let workers = policy.threads().min(len.max(1));
    if workers <= 1 || len <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // ~4 chunks per worker keeps the cursor cheap while still smoothing
    // imbalance between expensive and cheap items.
    let chunk = (len / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;

    #[expect(
        clippy::disallowed_methods,
        reason = "apc-par's own worker threads: par_map is the one intra-rank threading door"
    )]
    let mut parts: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        let end = (start + chunk).min(len);
                        let out: Vec<R> = items[start..end]
                            .iter()
                            .enumerate()
                            .map(|(o, t)| f(start + o, t))
                            .collect();
                        local.push((start, out));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(len);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    debug_assert_eq!(out.len(), len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_threads_agree_on_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map(ExecPolicy::Serial, &items, |&x| x.wrapping_mul(x) ^ 0xABCD);
        for n in [2, 3, 8, 64] {
            let par = par_map(ExecPolicy::Threads(n), &items, |&x| {
                x.wrapping_mul(x) ^ 0xABCD
            });
            assert_eq!(serial, par, "Threads({n}) must match Serial exactly");
        }
    }

    #[test]
    fn indexed_variant_sees_true_indices() {
        let items = vec!["a"; 257];
        let idx = par_map_indexed(ExecPolicy::Threads(4), &items, |i, _| i);
        assert_eq!(idx, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(ExecPolicy::Threads(8), &empty, |&x| x).is_empty());
        assert_eq!(
            par_map(ExecPolicy::Threads(8), &[7u32], |&x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn degenerate_thread_counts_are_serial() {
        assert_eq!(ExecPolicy::Threads(0).threads(), 1);
        assert_eq!(ExecPolicy::Serial.threads(), 1);
        assert_eq!(ExecPolicy::Threads(2).threads(), 2);
    }

    #[test]
    fn clamp_respects_rank_budget() {
        let cores = available_cores();
        // With as many ranks as cores, each rank gets at most one thread.
        assert_eq!(
            ExecPolicy::Threads(8).clamp_for_ranks(cores),
            ExecPolicy::Serial
        );
        // A single rank keeps min(n, cores).
        let one = ExecPolicy::Threads(2).clamp_for_ranks(1);
        if cores >= 2 {
            assert_eq!(one, ExecPolicy::Threads(2.min(cores)));
        } else {
            assert_eq!(one, ExecPolicy::Serial);
        }
        assert_eq!(ExecPolicy::Serial.clamp_for_ranks(1), ExecPolicy::Serial);
        // The rule itself: the budget never oversubscribes the host.
        for n in [1usize, 2, 64, 400] {
            let budget = thread_budget(n);
            assert!(budget >= 1);
            assert!(n * budget <= cores.max(n), "ranks {n} budget {budget}");
        }
    }

    #[test]
    fn kernel_recommendation_caps_policy() {
        let rec = RecommendedConcurrency::per_items(10, 10); // prefers 1
        assert_eq!(ExecPolicy::Threads(8).for_kernel(rec), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::Serial.for_kernel(rec), ExecPolicy::Serial);
        let serial = RecommendedConcurrency::serial();
        assert_eq!(
            ExecPolicy::Threads(8).for_kernel(serial),
            ExecPolicy::Serial
        );
    }

    #[test]
    fn kernel_recommendation_is_not_core_capped() {
        // Granularity only: a 64-block set at 8 items/worker prefers 8
        // workers even on a 1-core host — machine capacity is
        // clamp_for_ranks' job, and folding it in here would silently
        // serialize the policy-determinism guards on small CI machines.
        let rec = RecommendedConcurrency::per_items(64, 8);
        assert_eq!(rec.preferred.get(), 8);
        assert_eq!(
            ExecPolicy::Threads(8).for_kernel(rec),
            ExecPolicy::Threads(8)
        );
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let res = std::panic::catch_unwind(|| {
            par_map(ExecPolicy::Threads(4), &items, |&x| {
                assert!(x != 33, "boom");
                x
            })
        });
        assert!(res.is_err());
    }
}

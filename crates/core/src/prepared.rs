//! [`Prepared`]: pipeline input bound to a persistent rank session — the
//! substrate every parameter sweep replays through.
//!
//! A `Prepared` owns (a) the input blocks for one `(rank count, iteration
//! set)` and (b) a persistent [`Session`] of rank threads, so replaying
//! many [`PipelineConfig`]s costs one thread spawn and one data pass
//! instead of one per configuration. Two input sources exist:
//!
//! * **Preloaded** ([`Prepared::from_dataset`]) — every `(iteration,
//!   rank)` block set generated up front and held in memory;
//! * **Store** ([`Prepared::from_store`]) — blocks live in an `apc-store`
//!   chunked dataset and each rank reads *only its own chunks, lazily,
//!   from inside its rank thread* during the run. Peak memory per
//!   iteration is one rank's working set instead of the whole domain,
//!   which is what opens larger-than-memory replay; with a lossless chunk
//!   codec the reports are byte-identical to the preloaded path (pinned
//!   by the `store_roundtrip` integration test).
//!
//! The network model is a constructor argument: it is baked into the
//! session's shared state, so replaying on another network means another
//! `Prepared`.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use apc_cm1::{ReflectivityDataset, StoredTimeSeries};
use apc_comm::{NetModel, Runtime, Session};
use apc_grid::Block;
use apc_par::{par_map, ExecPolicy, RecommendedConcurrency};

use crate::config::PipelineConfig;
use crate::driver::run_sweep_in_session;
use crate::report::IterationReport;
use crate::serving::{ServeParams, ServingRun};
use crate::staged::StagedRun;

/// Where a [`Prepared`]'s blocks come from.
enum BlockSource {
    /// Everything generated up front, keyed by `(iteration, rank)`.
    Preloaded(BTreeMap<(usize, usize), Vec<Block>>),
    /// Lazy per-rank chunk reads from a stored dataset (boxed: the stored
    /// handle is much larger than the map header).
    Store(Box<StoredTimeSeries>),
}

/// Pre-arranged pipeline input for one `(rank count, iteration set)`:
/// blocks (in memory or behind a chunked store) and a persistent rank
/// [`Session`], so every configuration replayed through this input reuses
/// the same rank threads. Preparing once and replaying across
/// configurations is exactly what the paper does by reloading its stored
/// dataset with BIL (§V-A).
pub struct Prepared {
    /// The dataset's geometry (decomposition + coordinate axes). For a
    /// store-backed `Prepared` this is the deterministic geometry twin —
    /// block data still comes from the store.
    pub dataset: ReflectivityDataset,
    pub iterations: Vec<usize>,
    /// Execution policy injected into every config run through this input
    /// (figure experiments never set one themselves).
    pub exec: ExecPolicy,
    source: BlockSource,
    session: Mutex<Session>,
}

impl Prepared {
    /// Prepare a dataset (the figures use `paper_scaled`, integration tests
    /// the `tiny` geometry) with `exec` applied to every run and `net` as
    /// the session's network model. All blocks are generated up front and
    /// held in memory.
    pub fn from_dataset(
        dataset: ReflectivityDataset,
        mut iterations: Vec<usize>,
        exec: ExecPolicy,
        net: NetModel,
    ) -> Self {
        let nranks = dataset.decomp().nranks();
        // The subset/averaging logic assumes a strictly increasing,
        // duplicate-free timeline; enforce it here once.
        iterations.sort_unstable();
        iterations.dedup();
        let pairs: Vec<(usize, usize)> = iterations
            .iter()
            .flat_map(|&it| (0..nranks).map(move |rank| (it, rank)))
            .collect();
        // Generation is a pure function of `(iteration, rank)` and no rank
        // thread exists yet to compete for the cores: fan out over all of
        // them, a rank's subdomain being the kernel's grain.
        let policy =
            ExecPolicy::auto().for_kernel(RecommendedConcurrency::per_items(pairs.len(), 1));
        let generated = par_map(policy, &pairs, |&(it, rank)| dataset.rank_blocks(it, rank));
        let blocks = pairs.into_iter().zip(generated).collect();
        Self::assemble(
            dataset,
            iterations,
            exec,
            net,
            BlockSource::Preloaded(blocks),
        )
    }

    /// Prepare a **stored** dataset (reopened via
    /// [`apc_cm1::open_dataset`]): nothing is loaded up front — each rank
    /// thread reads its own chunks from the store as the session replays,
    /// so datasets larger than memory stream through. The prepared
    /// iteration set is exactly the stored one.
    ///
    /// A series opened through `StoredTimeSeries::from_backend_cached`
    /// answers these reads from the dataset's decoded-chunk cache (budget
    /// in decoded bytes): a chunk it holds is neither read nor decoded
    /// again, and the block a rank gets shares the cached buffer. Replay
    /// results are byte-identical either way (`tests/properties.rs` pins
    /// this), only read speed changes.
    ///
    /// A failed chunk read panics inside the owning rank, which fails the
    /// run loudly and poisons the session — the same contract as any rank
    /// panic.
    pub fn from_store(stored: StoredTimeSeries, exec: ExecPolicy, net: NetModel) -> Self {
        let dataset = stored.geometry().clone();
        let iterations = stored.iterations().to_vec();
        Self::assemble(
            dataset,
            iterations,
            exec,
            net,
            BlockSource::Store(Box::new(stored)),
        )
    }

    fn assemble(
        dataset: ReflectivityDataset,
        iterations: Vec<usize>,
        exec: ExecPolicy,
        net: NetModel,
        source: BlockSource,
    ) -> Self {
        let session = Mutex::new(Runtime::new(dataset.decomp().nranks(), net).session());
        Self {
            dataset,
            iterations,
            exec,
            source,
            session,
        }
    }

    /// The component-experiment iteration subset: `n` strictly increasing,
    /// duplicate-free iterations equally spaced through the prepared set.
    pub fn subset(&self, n: usize) -> Vec<usize> {
        spaced_subset(&self.iterations, n)
    }

    /// Run a pipeline configuration over `iterations` (must be prepared)
    /// through the persistent rank session.
    pub fn run(&self, config: PipelineConfig, iterations: &[usize]) -> Vec<IterationReport> {
        self.run_sweep(std::slice::from_ref(&config), iterations)
            .swap_remove(0)
    }

    /// The sweep engine entry point: replay every configuration over the
    /// same prepared blocks and one rank session. Returns one report
    /// series per configuration, in order — byte-identical to
    /// running each configuration through a fresh spawn-per-run runtime
    /// (guarded by the `sweep_engine` integration tests).
    pub fn run_sweep(
        &self,
        configs: &[PipelineConfig],
        iterations: &[usize],
    ) -> Vec<Vec<IterationReport>> {
        let configs: Vec<PipelineConfig> =
            configs.iter().map(|c| self.instrument(c.clone())).collect();
        run_sweep_in_session(
            &mut self.session(),
            self.dataset.decomp(),
            self.dataset.coords(),
            &configs,
            iterations,
            &|it, rank| self.prepared_blocks(it, rank),
        )
    }

    /// Run a staged ([`crate::InSituMode::Staged`]) configuration over
    /// `iterations` through the persistent rank session, returning the
    /// full [`StagedRun`] (reports **plus** the staged-only observables —
    /// stall, sim-visible time, dropped/degraded counts). Staged configs
    /// also flow through [`Prepared::run`]/[`Prepared::run_sweep`], which
    /// return just the report stream.
    pub fn run_staged(&self, config: PipelineConfig, iterations: &[usize]) -> StagedRun {
        self.staged(config, iterations, None).staged
    }

    /// Run a staged configuration with `serve.clients` simulated client
    /// ranks co-scheduled against its stager pool, through the persistent
    /// rank session (see [`crate::serving`]). The config's
    /// `StagedParams::persist` sink must be attached: stagers persist
    /// frames as they render and serve them back over the request/reply
    /// protocol. The session's rank count splits
    /// `[sim][viz][serve.clients]`, with the dataset's ranks folded onto
    /// the simulation ranks as in [`Prepared::run_staged`].
    pub fn run_staged_serving(
        &self,
        config: PipelineConfig,
        iterations: &[usize],
        serve: &ServeParams,
    ) -> ServingRun {
        self.staged(config, iterations, Some(serve))
    }

    /// The staged door both staged entries go through: the one staged
    /// driver over this input's session, with clients when `serve` is given.
    fn staged(
        &self,
        config: PipelineConfig,
        iterations: &[usize],
        serve: Option<&ServeParams>,
    ) -> ServingRun {
        crate::staged::run(
            &mut self.session(),
            self.dataset.decomp(),
            &self.instrument(config),
            iterations,
            serve,
            &|it, rank| self.prepared_blocks(it, rank),
        )
    }

    /// The persistent rank session, locked for one run.
    fn session(&self) -> MutexGuard<'_, Session> {
        #[expect(
            clippy::expect_used,
            reason = "session mutex poisoning means an earlier sweep panicked; propagate"
        )]
        self.session.lock().expect("an earlier sweep panicked")
    }

    /// Inject this input's execution policy into a configuration, clamped
    /// to the host's per-rank thread budget.
    fn instrument(&self, mut config: PipelineConfig) -> PipelineConfig {
        config.exec = self.exec.clamp_for_ranks(self.dataset.decomp().nranks());
        config
    }

    fn prepared_blocks(&self, it: usize, rank: usize) -> Vec<Block> {
        match &self.source {
            #[expect(
                clippy::panic,
                reason = "caller asked for an unprepared iteration — a driver bug, not input"
            )]
            BlockSource::Preloaded(blocks) => blocks
                .get(&(it, rank))
                .unwrap_or_else(|| panic!("iteration {it} not prepared"))
                .clone(),
            #[expect(
                clippy::panic,
                reason = "documented contract — a failed chunk read panics the owning rank and poisons the session"
            )]
            BlockSource::Store(stored) => stored.rank_blocks(it, rank).unwrap_or_else(|e| {
                panic!("store read failed for iteration {it} rank {rank}: {e}")
            }),
        }
    }
}

/// `n` entries equally spaced through `items`, always strictly increasing
/// and duplicate-free (for `n >= 2` the first and last entries are always
/// included; `n >= items.len()` returns everything). `items` must be
/// strictly increasing. Figure averages double-count nothing because of
/// this guarantee.
pub fn spaced_subset(items: &[usize], n: usize) -> Vec<usize> {
    if n >= items.len() {
        return items.to_vec();
    }
    debug_assert!(
        items.windows(2).all(|w| w[1] > w[0]),
        "items must be strictly increasing"
    );
    let mut out = Vec::with_capacity(n);
    let mut prev: Option<usize> = None;
    for i in 0..n {
        let mut idx = i * (items.len() - 1) / (n - 1).max(1);
        // Integer spacing can only repeat an index when n approaches
        // items.len(); bump forward to keep the selection unique.
        if let Some(p) = prev {
            if idx <= p {
                idx = p + 1;
            }
        }
        prev = Some(idx);
        out.push(items[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_subset_boundaries() {
        let items: Vec<usize> = vec![10, 20, 30, 40, 50, 60];
        assert!(spaced_subset(&items, 0).is_empty());
        assert_eq!(spaced_subset(&items, 1), vec![10]);
        // n = len - 1 is the regime where naive integer spacing repeats an
        // index and a figure average double-counts an iteration.
        assert_eq!(
            spaced_subset(&items, items.len() - 1).len(),
            items.len() - 1
        );
        assert_eq!(spaced_subset(&items, items.len()), items);
        assert_eq!(spaced_subset(&items, items.len() + 5), items);
    }

    #[test]
    fn spaced_subset_is_strictly_increasing_and_unique_for_every_n() {
        let items: Vec<usize> = (0..17).map(|i| 57 + i * 3).collect();
        for n in 0..=items.len() + 2 {
            let sub = spaced_subset(&items, n);
            assert_eq!(sub.len(), n.min(items.len()), "n = {n}");
            assert!(
                sub.windows(2).all(|w| w[1] > w[0]),
                "subset for n = {n} is not strictly increasing: {sub:?}"
            );
            if n >= 2 {
                assert_eq!(sub[0], items[0], "first element always included");
                assert_eq!(*sub.last().unwrap(), *items.last().unwrap());
            }
        }
    }

    #[test]
    fn store_backed_prepared_matches_preloaded() {
        use apc_cm1::StoredTimeSeries;
        use apc_store::{CodecKind, MemStore, StoreBackend};

        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = dataset.sample_iterations(2);
        let backend: Box<dyn StoreBackend> = Box::new(MemStore::new());
        apc_cm1::write_dataset_to(&dataset, &iters, &backend, CodecKind::Fpz, None).unwrap();
        let stored = StoredTimeSeries::from_backend(backend).unwrap();

        let from_store = Prepared::from_store(stored, ExecPolicy::Serial, NetModel::blue_waters());
        let preloaded = Prepared::from_dataset(
            dataset,
            iters.clone(),
            ExecPolicy::Serial,
            NetModel::blue_waters(),
        );
        assert_eq!(from_store.iterations, preloaded.iterations);
        let config = PipelineConfig::default().with_fixed_percent(60.0);
        let a = from_store.run(config.clone(), &iters);
        let b = preloaded.run(config, &iters);
        assert_eq!(a, b, "store-backed replay must be byte-identical");
    }
}

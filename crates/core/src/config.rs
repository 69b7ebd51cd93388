//! Pipeline configuration.

use apc_par::ExecPolicy;
use apc_render::RenderCostModel;
use apc_serve::FrameSink;
use apc_stage::BackpressurePolicy;

/// How the in situ pipeline is coupled to the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum InSituMode {
    /// Time-partitioned (the paper's setup): every rank runs the full
    /// score→sort→reduce→redistribute→render pipeline inline, so the whole
    /// visualization cost lands on the simulation's critical path.
    Synchronous,
    /// Space-partitioned: a subset of ranks is dedicated to visualization
    /// and the simulation ranks post their blocks into bounded queues and
    /// continue — the Damaris-style staging mode implemented by
    /// `apc-stage` and `crate::staged`.
    Staged(StagedParams),
}

/// Parameters of [`InSituMode::Staged`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagedParams {
    /// Ranks dedicated to staging, out of the run's total rank count (the
    /// last `viz_ranks` ranks). The remaining ranks simulate.
    pub viz_ranks: usize,
    /// Waiting-slot capacity of each (simulation rank → stager) queue.
    pub queue_depth: usize,
    /// What happens when the stagers fall behind.
    pub policy: BackpressurePolicy,
    /// Virtual seconds the simulated solver spends computing one
    /// iteration — the work the staged visualization overlaps with. Zero
    /// models a solver that produces frames back to back.
    pub sim_compute: f64,
    /// Where stagers persist the frames they render (`apc-serve`): a
    /// shared store backend, a run id, and a per-frame codec. `None` (the
    /// default) reproduces the pre-serving behavior — frames are counted
    /// and discarded. The write itself is modeled as off the critical
    /// path (no virtual-time charge), so a run's reports are identical
    /// with and without a sink; serving (`crate::serving`) requires one.
    pub persist: Option<FrameSink>,
}

impl StagedParams {
    pub fn new(viz_ranks: usize, queue_depth: usize, policy: BackpressurePolicy) -> Self {
        assert!(viz_ranks >= 1, "need at least one staging rank");
        assert!(queue_depth >= 1, "queue depth must be at least one");
        Self {
            viz_ranks,
            queue_depth,
            policy,
            sim_compute: 0.0,
            persist: None,
        }
    }

    /// Set the virtual per-iteration solver compute time.
    pub fn with_sim_compute(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "sim compute time must be finite and non-negative"
        );
        self.sim_compute = seconds;
        self
    }

    /// Persist rendered frames through `sink` as the stagers produce them
    /// (see [`apc_serve::FrameSink`] and `crate::serving`).
    pub fn with_persist(mut self, sink: FrameSink) -> Self {
        self.persist = Some(sink);
        self
    }

    /// Check the partition fits a concrete rank count, `clients` of which
    /// a serving run keeps for its clients (0 for a plain staged run).
    /// Run-entry guard — the rank count is not known when the config is
    /// built.
    pub fn validate(&self, nranks: usize, clients: usize) {
        assert!(
            self.viz_ranks + clients < nranks,
            "staged config dedicates {} viz + {clients} client of {nranks} ranks; at \
             least one simulation rank must remain",
            self.viz_ranks
        );
    }
}

/// Block redistribution strategy (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redistribution {
    /// Leave blocks on their producing rank (the paper's NONE baseline).
    None,
    /// Each rank receives a random, equally-sized set of blocks. All ranks
    /// use the same seed so the assignment is agreed without communication.
    RandomShuffle { seed: u64 },
    /// Blocks sorted by descending score are dealt to ranks round-robin:
    /// rank 0 gets the highest-scored block, rank 1 the next, and so on.
    RoundRobin,
}

/// How the global score sort is implemented (§IV-C; sample sort is an
/// ablation the `ablations` binary runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortStrategy {
    #[default]
    GatherSortBroadcast,
    SampleSort,
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Scoring metric name, resolved through [`apc_metrics::by_name`].
    pub metric: String,
    pub redistribution: Redistribution,
    pub sort: SortStrategy,
    /// Isovalue rendered by the visualization scenario, fixed at
    /// [`apc_cm1::DBZ_ISOVALUE`] (45 dBZ). Public because the benchmark
    /// hands it to its isosurface probe.
    pub isovalue: f32,
    /// Per-iteration time budget (seconds of virtual time). `None` disables
    /// adaptation and pins the percentage at `fixed_percent`.
    pub target_time: Option<f64>,
    /// Reduction percentage used when adaptation is off (paper §V-D runs).
    pub fixed_percent: f64,
    /// Points kept per axis when a block is reduced: 2 is the paper's
    /// corner reduction; larger lattices are the downsampling-size
    /// extension (§IV-C outlook).
    pub reduce_keep: usize,
    /// Virtual render cost model.
    pub cost: RenderCostModel,
    /// Intra-rank execution policy for the per-block hot kernels (scoring
    /// and isosurface counting). This changes *wall-clock* time only:
    /// virtual-time accounting is summed from per-block counters, so
    /// `Serial` and `Threads(n)` produce byte-identical
    /// [`crate::IterationReport`]s (guarded by the
    /// `exec_policy_determinism` regression test). The pipeline uses the
    /// policy exactly as given; experiment drivers that spawn one OS thread
    /// per rank clamp it first so `ranks × threads ≤ cores`
    /// (see [`ExecPolicy::clamp_for_ranks`]).
    pub exec: ExecPolicy,
    /// How the pipeline couples to the simulation: inline on every rank
    /// ([`InSituMode::Synchronous`], the default and the paper's setup) or
    /// asynchronously on dedicated staging ranks ([`InSituMode::Staged`]).
    /// The experiment drivers dispatch on this; the synchronous
    /// [`crate::Pipeline`] executor rejects staged configs.
    pub mode: InSituMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            metric: "VAR".to_owned(),
            redistribution: Redistribution::None,
            sort: SortStrategy::GatherSortBroadcast,
            isovalue: apc_cm1::DBZ_ISOVALUE,
            target_time: None,
            fixed_percent: 0.0,
            reduce_keep: 2,
            cost: RenderCostModel::default(),
            exec: ExecPolicy::Serial,
            mode: InSituMode::Synchronous,
        }
    }
}

impl PipelineConfig {
    pub fn with_metric(mut self, metric: &str) -> Self {
        self.metric = metric.to_owned();
        self
    }

    pub fn with_redistribution(mut self, r: Redistribution) -> Self {
        self.redistribution = r;
        self
    }

    pub fn with_target(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "target time must be finite and positive"
        );
        self.target_time = Some(seconds);
        self
    }

    pub fn with_fixed_percent(mut self, percent: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&percent),
            "percent must be in [0, 100]"
        );
        self.fixed_percent = percent;
        self
    }

    pub fn with_reduce_keep(mut self, keep: usize) -> Self {
        assert!(keep >= 2, "keep at least two points per axis");
        self.reduce_keep = keep;
        self
    }

    /// Select the intra-rank execution policy for per-block kernels.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Run this configuration in dedicated-core staging mode (see
    /// [`InSituMode::Staged`] and [`crate::staged`]).
    pub fn with_staged(mut self, params: StagedParams) -> Self {
        self.mode = InSituMode::Staged(params);
        self
    }

    /// Deterministic variant (no render jitter) for reproducible tests.
    pub fn deterministic(mut self) -> Self {
        self.cost = self.cost.deterministic();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = PipelineConfig::default();
        assert_eq!(c.metric, "VAR");
        assert_eq!(c.isovalue, 45.0);
        assert_eq!(c.redistribution, Redistribution::None);
        assert_eq!(c.fixed_percent, 0.0);
        assert!(c.target_time.is_none());
        assert_eq!(
            c.exec,
            ExecPolicy::Serial,
            "seed behavior is serial by default"
        );
    }

    #[test]
    fn exec_builder() {
        let c = PipelineConfig::default().with_exec(ExecPolicy::Threads(8));
        assert_eq!(c.exec, ExecPolicy::Threads(8));
    }

    #[test]
    fn builder_chain() {
        let c = PipelineConfig::default()
            .with_metric("LEA")
            .with_redistribution(Redistribution::RoundRobin)
            .with_target(20.0)
            .with_fixed_percent(50.0);
        assert_eq!(c.metric, "LEA");
        assert_eq!(c.redistribution, Redistribution::RoundRobin);
        assert_eq!(c.target_time, Some(20.0));
        assert_eq!(c.fixed_percent, 50.0);
    }

    #[test]
    #[should_panic(expected = "percent must be in [0, 100]")]
    fn bad_percent_rejected() {
        let _ = PipelineConfig::default().with_fixed_percent(120.0);
    }

    #[test]
    #[should_panic(expected = "target time must be finite and positive")]
    fn bad_target_rejected() {
        let _ = PipelineConfig::default().with_target(f64::NAN);
    }

    #[test]
    fn default_mode_is_synchronous() {
        assert_eq!(PipelineConfig::default().mode, InSituMode::Synchronous);
    }

    #[test]
    fn staged_builder_carries_params() {
        let params = StagedParams::new(2, 4, BackpressurePolicy::Block).with_sim_compute(12.5);
        let c = PipelineConfig::default().with_staged(params.clone());
        match c.mode {
            InSituMode::Staged(p) => {
                assert_eq!(p.viz_ranks, 2);
                assert_eq!(p.queue_depth, 4);
                assert_eq!(p.policy, BackpressurePolicy::Block);
                assert_eq!(p.sim_compute, 12.5);
                assert_eq!(p.persist, None, "no frame sink by default");
            }
            InSituMode::Synchronous => panic!("builder must switch the mode"),
        }
        params.validate(8, 0); // 2 of 8 ranks staged is fine
        params.validate(8, 5); // and leaves a simulation rank next to 5 clients
    }

    #[test]
    fn persist_builder_attaches_a_sink() {
        use apc_store::MemStore;
        use std::sync::Arc;

        let sink = FrameSink::new(Arc::new(MemStore::new()), "run", apc_store::CodecKind::Fpz);
        let params = StagedParams::new(1, 2, BackpressurePolicy::Block).with_persist(sink.clone());
        assert_eq!(params.persist, Some(sink));
        // Configs carrying a sink still clone and compare like any other.
        let c = PipelineConfig::default().with_staged(params.clone());
        assert_eq!(c.mode, InSituMode::Staged(params));
    }

    #[test]
    #[should_panic(expected = "at least one staging rank")]
    fn staged_zero_viz_rejected() {
        let _ = StagedParams::new(0, 2, BackpressurePolicy::Block);
    }

    #[test]
    #[should_panic(expected = "at least one simulation rank")]
    fn staged_all_viz_rejected() {
        StagedParams::new(4, 2, BackpressurePolicy::Block).validate(4, 0);
    }

    #[test]
    #[should_panic(expected = "sim compute time must be finite")]
    fn staged_bad_sim_compute_rejected() {
        let _ = StagedParams::new(1, 1, BackpressurePolicy::Block).with_sim_compute(-1.0);
    }
}

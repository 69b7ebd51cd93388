//! Experiment driver: replay a dataset through the pipeline on the virtual
//! runtime — the equivalent of the paper's BIL-reload + Catalyst kernel
//! (§V-A).
//!
//! Two execution shapes:
//!
//! * **one-shot** ([`run_experiment`] family) — spawn the rank threads,
//!   run one configuration, join;
//! * **sweep** ([`run_sweep_prepared`] / [`run_sweep_in_session`]) — spawn
//!   the rank threads once ([`apc_comm::Session`]) and replay *many*
//!   configurations over them, which is how the paper's Figs 6–11 explore
//!   the parameter space over one stored dataset. Virtual time is counted,
//!   not measured, so the two shapes produce byte-identical
//!   [`IterationReport`]s (guarded by the `sweep_engine` integration
//!   tests); the sweep only removes the per-configuration thread-spawn
//!   wall-clock cost.

use apc_cm1::ReflectivityDataset;
use apc_comm::{NetModel, Runtime, Session};

use crate::config::{InSituMode, PipelineConfig};
use crate::pipeline::Pipeline;
use crate::report::IterationReport;

/// Run `config` over the given dataset iterations on the dataset's own rank
/// count, with a Blue Waters-like network. Returns one report per
/// iteration (identical across ranks; rank 0's copy).
// apc-lint: allow(dead-pub): the spawn-per-run reference of pipeline_e2e and staged_determinism
pub fn run_experiment(
    dataset: &ReflectivityDataset,
    config: PipelineConfig,
    iterations: &[usize],
) -> Vec<IterationReport> {
    run_experiment_on(dataset, config, iterations, NetModel::blue_waters())
}

/// [`run_experiment`] with an explicit network model (used by the
/// low-network-performance ablation from the paper's §VI outlook).
pub fn run_experiment_on(
    dataset: &ReflectivityDataset,
    config: PipelineConfig,
    iterations: &[usize],
    net: NetModel,
) -> Vec<IterationReport> {
    run_experiment_prepared(
        dataset.decomp(),
        dataset.coords(),
        config,
        iterations,
        net,
        |it, rank| dataset.rank_blocks(it, rank),
    )
}

/// Lowest-level driver: the caller supplies the per-`(iteration, rank)`
/// block input. Parameter sweeps use this with pre-generated blocks so the
/// synthetic simulation runs once instead of once per configuration (the
/// virtual-time results are identical either way).
///
/// The driver spawns one OS thread per rank, so it clamps the config's
/// [`crate::ExecPolicy`] to the per-rank thread budget
/// (`ranks × threads ≤ cores`) before entering the pipeline. Virtual-time
/// output is unaffected — the clamp only protects wall-clock throughput.
pub fn run_experiment_prepared<F>(
    decomp: &apc_grid::DomainDecomp,
    coords: &apc_grid::RectilinearCoords,
    config: PipelineConfig,
    iterations: &[usize],
    net: NetModel,
    blocks: F,
) -> Vec<IterationReport>
where
    F: Fn(usize, usize) -> Vec<apc_grid::Block> + Sync,
{
    run_sweep_prepared(
        decomp,
        coords,
        std::slice::from_ref(&config),
        iterations,
        net,
        blocks,
    )
    .swap_remove(0)
}

/// The sweep engine: replay every configuration in `configs` over the same
/// prepared input through **one** rank session — the rank threads are
/// spawned once, not once per configuration. Returns one report series per
/// configuration, in order. Byte-identical to running each configuration
/// through [`run_experiment_prepared`] separately.
pub fn run_sweep_prepared<F>(
    decomp: &apc_grid::DomainDecomp,
    coords: &apc_grid::RectilinearCoords,
    configs: &[PipelineConfig],
    iterations: &[usize],
    net: NetModel,
    blocks: F,
) -> Vec<Vec<IterationReport>>
where
    F: Fn(usize, usize) -> Vec<apc_grid::Block> + Sync,
{
    let mut session = Runtime::new(decomp.nranks(), net).session();
    run_sweep_in_session(&mut session, decomp, coords, configs, iterations, &blocks)
}

/// [`run_sweep_prepared`] over a caller-owned [`Session`], so several
/// sweeps (e.g. consecutive figures of the paper) can share one persistent
/// rank pool. The session's rank count must match the decomposition; its
/// network model is whatever the session was created with.
pub fn run_sweep_in_session<F>(
    session: &mut Session,
    decomp: &apc_grid::DomainDecomp,
    coords: &apc_grid::RectilinearCoords,
    configs: &[PipelineConfig],
    iterations: &[usize],
    blocks: &F,
) -> Vec<Vec<IterationReport>>
where
    F: Fn(usize, usize) -> Vec<apc_grid::Block> + Sync,
{
    assert_eq!(
        session.nranks(),
        decomp.nranks(),
        "session rank count must match the decomposition"
    );
    configs
        .iter()
        .map(|cfg| {
            let mut config = cfg.clone();
            config.exec = config.exec.clamp_for_ranks(decomp.nranks());
            match config.mode {
                InSituMode::Synchronous => {
                    let mut all: Vec<Vec<IterationReport>> = session.run(|rank| {
                        let mut pipeline = Pipeline::new(config.clone(), *decomp, coords.clone());
                        iterations
                            .iter()
                            .map(|&it| {
                                let input = blocks(it, rank.rank());
                                pipeline.run_iteration(rank, input, it).0
                            })
                            .collect()
                    });
                    all.swap_remove(0)
                }
                // Staged configs run the dedicated-core executor over the
                // same session and fold into the same report-stream shape
                // (the staged-only observables are available through
                // `crate::staged::run_staged_in_session` directly).
                InSituMode::Staged(_) => crate::staged::run_staged_in_session(
                    session, decomp, coords, &config, iterations, blocks,
                )
                .reports(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_runs_multiple_iterations() {
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = dataset.sample_iterations(3);
        let reports = run_experiment(&dataset, PipelineConfig::default().deterministic(), &iters);
        assert_eq!(reports.len(), 3);
        for (r, &it) in reports.iter().zip(&iters) {
            assert_eq!(r.iteration, it);
            assert!(r.t_total > 0.0);
        }
    }

    #[test]
    fn sweep_matches_one_shot_per_config() {
        // The sweep engine's core invariant: one session replaying many
        // configs produces exactly what spawn-per-run produces per config.
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = dataset.sample_iterations(2);
        let configs: Vec<PipelineConfig> = [0.0, 50.0, 100.0]
            .iter()
            .map(|&p| {
                PipelineConfig::default()
                    .deterministic()
                    .with_fixed_percent(p)
            })
            .collect();
        let swept = run_sweep_prepared(
            dataset.decomp(),
            dataset.coords(),
            &configs,
            &iters,
            NetModel::blue_waters(),
            |it, rank| dataset.rank_blocks(it, rank),
        );
        assert_eq!(swept.len(), configs.len());
        for (cfg, series) in configs.iter().zip(&swept) {
            let one_shot = run_experiment(&dataset, cfg.clone(), &iters);
            assert_eq!(series, &one_shot, "sweep diverged for {cfg:?}");
        }
    }

    #[test]
    fn slow_network_raises_redistribution_cost() {
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = [300];
        let cfg = PipelineConfig::default()
            .deterministic()
            .with_redistribution(crate::Redistribution::RandomShuffle { seed: 1 });
        let fast = run_experiment_on(&dataset, cfg.clone(), &iters, NetModel::blue_waters());
        let slow = run_experiment_on(&dataset, cfg, &iters, NetModel::gigabit_ethernet());
        assert!(
            slow[0].t_redistribute > 10.0 * fast[0].t_redistribute,
            "gigabit {} vs gemini {}",
            slow[0].t_redistribute,
            fast[0].t_redistribute
        );
        // Rendering is unaffected by the network (up to the barrier that
        // closes the step, whose latency differs between the two models).
        assert!((slow[0].t_render - fast[0].t_render).abs() < 1e-2);
    }
}

//! Experiment driver: replay a dataset through the pipeline on the virtual
//! runtime — the equivalent of the paper's BIL-reload + Catalyst kernel
//! (§V-A).
//!
//! One execution shape: the **sweep** ([`run_sweep_in_session`]) replays
//! *many* configurations over a caller-owned rank [`Session`], spawning
//! the rank threads once — which is how the paper's Figs 6–11 explore the
//! parameter space over one stored dataset. [`crate::Prepared`] binds a
//! session to its input; a caller that wants a fresh one builds it in a
//! line (`Runtime::new(n, net).session()`), and [`run_experiment`] does
//! exactly that for one configuration. Virtual time is counted, not
//! measured, so a fresh session and a reused one produce byte-identical
//! [`IterationReport`]s (guarded by the `sweep_engine` integration tests);
//! reuse only removes the per-configuration thread-spawn wall-clock cost.

use apc_cm1::ReflectivityDataset;
use apc_comm::{NetModel, Runtime, Session};

use crate::config::{InSituMode, PipelineConfig};
use crate::pipeline::Pipeline;
use crate::report::IterationReport;

/// Run `config` over the given dataset iterations on the dataset's own rank
/// count, through a fresh session with a Blue Waters-like network. Returns
/// one report per iteration (identical across ranks; rank 0's copy).
// apc-lint: allow(dead-pub): the one-call door of examples/quickstart.rs
pub fn run_experiment(
    dataset: &ReflectivityDataset,
    config: PipelineConfig,
    iterations: &[usize],
) -> Vec<IterationReport> {
    let mut session = Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters()).session();
    run_sweep_in_session(
        &mut session,
        dataset.decomp(),
        dataset.coords(),
        std::slice::from_ref(&config),
        iterations,
        &|it, rank| dataset.rank_blocks(it, rank),
    )
    .swap_remove(0)
}

/// The sweep engine: replay every configuration in `configs` over the same
/// input through a caller-owned [`Session`], so several sweeps (e.g.
/// consecutive figures of the paper) can share one persistent rank pool.
/// Returns one report series per configuration, in order. The session's
/// rank count must match the decomposition; its network model is whatever
/// the session was created with.
///
/// The session holds one OS thread per rank, so the driver clamps each
/// config's [`crate::ExecPolicy`] to the per-rank thread budget
/// (`ranks × threads ≤ cores`) before entering the pipeline. Virtual-time
/// output is unaffected — the clamp only protects wall-clock throughput.
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
    fn slow_network_raises_redistribution_cost() {
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = [300];
        let cfg = PipelineConfig::default()
            .deterministic()
            .with_redistribution(crate::Redistribution::RandomShuffle { seed: 1 });
        let fast = run_experiment(&dataset, cfg.clone(), &iters);
        let slow = run_sweep_in_session(
            &mut Runtime::new(4, NetModel::gigabit_ethernet()).session(),
            dataset.decomp(),
            dataset.coords(),
            &[cfg],
            &iters,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
        .swap_remove(0);
        assert!(
            slow[0].t_redistribute > 10.0 * fast[0].t_redistribute,
            "gigabit {} vs gemini {}",
            slow[0].t_redistribute,
            fast[0].t_redistribute
        );
        // Rendering is unaffected by the network (up to the barrier that
        // closes the step, whose latency differs between the two models).
        assert!((slow[0].t_render - fast[0].t_render).abs() < 1e-2);
        // Nor is what gets rendered.
        assert_eq!(slow[0].triangles_total, fast[0].triangles_total);
    }
}

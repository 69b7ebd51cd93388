//! Integration tests for the sweep engine: one persistent rank session +
//! one `Prepared` input replaying many pipeline configurations.
//!
//! The two contracts under guard:
//!
//! 1. **Byte-identical reports** — a fig07-style sweep through
//!    `Prepared::run_sweep` (one session, one block set) produces exactly
//!    the reports the spawn-per-run driver produces per configuration,
//!    down to the bits of every virtual-time field.
//! 2. **Nothing carries over between configurations** — every
//!    configuration of a mixed sweep through one `Prepared` matches its own
//!    spawn-per-run reference, and a second sweep over the same session
//!    and blocks repeats the first exactly.

use apc_bench::harness::Prepared;
use apc_cm1::ReflectivityDataset;
use apc_comm::NetModel;
use apc_core::{
    run_experiment, BackpressurePolicy, ExecPolicy, IterationReport, PipelineConfig,
    Redistribution, StagedParams,
};

fn tiny_prepared(nranks: usize, seed: u64, n_iters: usize) -> Prepared {
    let dataset = ReflectivityDataset::tiny(nranks, seed).expect("tiny decomposition");
    let iters = dataset.sample_iterations(n_iters);
    Prepared::from_dataset(dataset, iters, ExecPolicy::Serial, NetModel::blue_waters())
}

fn assert_bitwise_equal(a: &[IterationReport], b: &[IterationReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x, y,
            "{what}: reports diverged at iteration {}",
            x.iteration
        );
        for (fx, fy) in [
            (x.t_score, y.t_score),
            (x.t_sort, y.t_sort),
            (x.t_reduce, y.t_reduce),
            (x.t_redistribute, y.t_redistribute),
            (x.t_render, y.t_render),
            (x.t_total, y.t_total),
        ] {
            assert_eq!(
                fx.to_bits(),
                fy.to_bits(),
                "{what}: virtual time drifted at iteration {}",
                x.iteration
            );
        }
    }
}

/// The acceptance-criteria test: a fig07-style percentage sweep through
/// the session + sweep engine is byte-identical to the spawn-per-run path.
#[test]
fn fig07_style_sweep_is_byte_identical_to_spawn_per_run() {
    let prepared = tiny_prepared(4, 42, 3);
    let iters = prepared.subset(2);
    let percents = [0.0, 40.0, 80.0, 100.0];
    let configs: Vec<PipelineConfig> = percents
        .iter()
        .map(|&p| {
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(p)
        })
        .collect();

    // One session, one block set, four configurations.
    let swept = prepared.run_sweep(&configs, &iters);
    assert_eq!(swept.len(), configs.len());

    // Spawn-per-run reference: a fresh runtime per configuration,
    // straight from the dataset.
    for (config, series) in configs.iter().zip(&swept) {
        let reference = run_experiment(&prepared.dataset, config.clone(), &iters);
        assert_bitwise_equal(series, &reference, "sweep vs spawn-per-run");
    }

    // And the paper's shape holds on the swept series: rendering time is
    // non-increasing in the reduction percentage.
    let renders: Vec<f64> = swept.iter().map(|s| s[0].t_render).collect();
    assert!(
        renders.windows(2).all(|w| w[1] <= w[0] + 1e-12),
        "render time must not increase with percentage: {renders:?}"
    );
}

/// A sweep mixing every pipeline dimension (redistribution, sort strategy,
/// adaptation, reduction lattice, staged mode) through one
/// session still matches spawn-per-run — the epoch isolation holds under
/// real p2p traffic, not just collectives.
#[test]
fn heterogeneous_sweep_matches_spawn_per_run() {
    let prepared = tiny_prepared(4, 7, 2);
    let iters = prepared.iterations.clone();
    let mut sample_sort_cfg = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(60.0);
    sample_sort_cfg.sort = apc_core::SortStrategy::SampleSort;
    let configs = [
        PipelineConfig::default()
            .deterministic()
            .with_redistribution(Redistribution::RoundRobin)
            .with_fixed_percent(50.0),
        sample_sort_cfg,
        PipelineConfig::default().with_target(3.0),
        PipelineConfig::default()
            .deterministic()
            .with_redistribution(Redistribution::RandomShuffle { seed: 5 }),
        // Every block rendered as a 3³ `Sampled` lattice, none full.
        PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(100.0)
            .with_reduce_keep(3),
        // The staged executor's render step: 3 sim ranks, 1 stager.
        PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(50.0)
            .with_staged(StagedParams::new(1, 2, BackpressurePolicy::Block)),
    ];
    let swept = prepared.run_sweep(&configs, &iters);
    for (config, series) in configs.iter().zip(&swept) {
        let reference = run_experiment(&prepared.dataset, config.clone(), &iters);
        assert_bitwise_equal(series, &reference, "heterogeneous sweep");
    }
}

/// Re-running a sweep over the same session and the same blocks must
/// reproduce the first results exactly.
#[test]
fn second_sweep_over_the_same_session_is_exact() {
    let prepared = tiny_prepared(4, 42, 2);
    let iters = prepared.subset(2);
    let configs = [PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(30.0)];
    let first = prepared.run_sweep(&configs, &iters);
    let second = prepared.run_sweep(&configs, &iters);
    assert_eq!(first, second, "a sweep must leave nothing behind");
}

//! End-to-end integration tests: dataset → scoring → sort → reduction →
//! redistribution → rendering → adaptation, across all workspace crates.

use insitu::cm1::ReflectivityDataset;
use insitu::pipeline::{run_experiment, IterationReport, PipelineConfig, Redistribution};

fn tiny(nranks: usize) -> ReflectivityDataset {
    ReflectivityDataset::tiny(nranks, 42).expect("tiny decomposition")
}

#[test]
fn experiments_are_bitwise_deterministic() {
    let dataset = tiny(16);
    let iters = dataset.sample_iterations(3);
    let cfg = PipelineConfig::default()
        .with_redistribution(Redistribution::RoundRobin)
        .with_target(3.0);
    let a = run_experiment(&dataset, cfg.clone(), &iters);
    let b = run_experiment(&dataset, cfg, &iters);
    assert_eq!(a, b, "same config + seed must reproduce exactly");
}

#[test]
fn different_seeds_give_different_storms() {
    let a = ReflectivityDataset::tiny(4, 1).unwrap();
    let b = ReflectivityDataset::tiny(4, 2).unwrap();
    let ra = run_experiment(&a, PipelineConfig::default().deterministic(), &[300]);
    let rb = run_experiment(&b, PipelineConfig::default().deterministic(), &[300]);
    assert_ne!(ra[0].triangles_total, rb[0].triangles_total);
}

#[test]
fn render_time_is_monotone_in_reduction_percentage() {
    // Paper assumption (1) behind Algorithm 1: pipeline time is monotone
    // (non-increasing) in the number of reduced blocks — exactly true with
    // the deterministic cost model.
    let dataset = tiny(16);
    let it = dataset.sample_iterations(5)[2];
    let mut prev = f64::INFINITY;
    for p in [0.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
        let r = run_experiment(
            &dataset,
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(p),
            &[it],
        );
        assert!(
            r[0].t_render <= prev + 1e-9,
            "t_render({p}%) = {} must not exceed t_render at lower percentage {prev}",
            r[0].t_render
        );
        prev = r[0].t_render;
    }
}

#[test]
fn reduction_keeps_block_count_and_extents() {
    // The filtered data must still tile the domain (reduced blocks keep
    // their extents for continuity, paper §IV-C).
    let dataset = tiny(4);
    let it = 300;
    let mut total_points = 0usize;
    for rank in 0..4 {
        for mut b in dataset.rank_blocks(it, rank) {
            let ext = b.extent;
            b.reduce();
            assert_eq!(b.extent, ext, "reduction must preserve the extent");
            assert_eq!(
                b.samples().len(),
                ext.len(),
                "reconstruction fills the extent"
            );
            total_points += ext.len();
        }
    }
    assert_eq!(total_points, dataset.decomp().domain().len());
}

#[test]
fn redistribution_preserves_geometry_exactly() {
    // Shuffling blocks must never change WHAT is rendered, only WHERE.
    let dataset = tiny(16);
    let it = dataset.sample_iterations(5)[2];
    let mut totals = Vec::new();
    for strat in [
        Redistribution::None,
        Redistribution::RoundRobin,
        Redistribution::RandomShuffle { seed: 3 },
        Redistribution::RandomShuffle { seed: 99 },
    ] {
        let r = run_experiment(
            &dataset,
            PipelineConfig::default()
                .deterministic()
                .with_redistribution(strat),
            &[it],
        );
        totals.push(r[0].triangles_total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "triangle totals differ: {totals:?}"
    );
}

#[test]
fn adaptive_run_reduces_more_when_target_is_tighter() {
    let dataset = tiny(16);
    let iters: Vec<usize> = dataset.sample_iterations(8);
    let loose = run_experiment(
        &dataset,
        PipelineConfig::default().deterministic().with_target(5.0),
        &iters,
    );
    let tight = run_experiment(
        &dataset,
        PipelineConfig::default().deterministic().with_target(1.5),
        &iters,
    );
    let avg = |rs: &[IterationReport]| {
        rs[2..].iter().map(|r| r.percent_reduced).sum::<f64>() / (rs.len() - 2) as f64
    };
    assert!(
        avg(&tight) > avg(&loose),
        "tighter budget must reduce more: {} vs {}",
        avg(&tight),
        avg(&loose)
    );
    let avg_t = |rs: &[IterationReport]| {
        rs[2..].iter().map(|r| r.t_total).sum::<f64>() / (rs.len() - 2) as f64
    };
    assert!(avg_t(&tight) < avg_t(&loose));
}

#[test]
fn metric_choice_does_not_change_unreduced_rendering() {
    // With 0% reduction and no redistribution, the metric only affects the
    // scoring step; rendering is identical.
    let dataset = tiny(4);
    let it = 300;
    let base = run_experiment(
        &dataset,
        PipelineConfig::default().deterministic().with_metric("VAR"),
        &[it],
    );
    for m in ["RANGE", "LEA", "ITL", "TRILIN", "FPZIP"] {
        let r = run_experiment(
            &dataset,
            PipelineConfig::default().deterministic().with_metric(m),
            &[it],
        );
        assert_eq!(r[0].triangles_total, base[0].triangles_total, "metric {m}");
        assert!(
            (r[0].t_render - base[0].t_render).abs() < 1e-9,
            "metric {m}"
        );
    }
}

#[test]
fn per_step_times_sum_to_total() {
    let dataset = tiny(16);
    let r = run_experiment(
        &dataset,
        PipelineConfig::default()
            .deterministic()
            .with_redistribution(Redistribution::RoundRobin)
            .with_fixed_percent(40.0),
        &[300],
    )[0];
    let sum = r.t_score + r.t_sort + r.t_reduce + r.t_redistribute + r.t_render;
    assert!(
        (sum - r.t_total).abs() < 1e-6,
        "steps sum {sum} vs total {}",
        r.t_total
    );
}

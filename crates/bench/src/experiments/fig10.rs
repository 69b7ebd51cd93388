//! Fig 10: dynamic adaptation *without* redistribution — rendering time
//! and reduction percentage per iteration while converging to a target.
//!
//! Paper targets: 120/60/20 s at 64 ranks, 30/15/7 s at 400 ranks.

use apc_core::PipelineConfig;

use crate::experiments::Ctx;
use crate::harness::{write_csv, Scale};

pub fn targets(nranks: usize) -> &'static [f64] {
    if nranks == 64 {
        &[120.0, 60.0, 20.0]
    } else {
        &[30.0, 15.0, 7.0]
    }
}

/// Shared implementation for Figs 10 and 11.
pub(crate) fn run_adaptation(
    ctx: &Ctx,
    scale: &Scale,
    title: &str,
    csv_name: &str,
    config_for_target: impl Fn(f64) -> PipelineConfig,
    targets_for: impl Fn(usize) -> &'static [f64],
) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters =
            prepared.iterations[..scale.adapt_iters.min(prepared.iterations.len())].to_vec();
        println!("\n== {title}, {nranks} ranks ==");
        // All targets replay through one rank session.
        let configs: Vec<PipelineConfig> = targets_for(nranks)
            .iter()
            .map(|&t| config_for_target(t))
            .collect();
        let swept = prepared.run_sweep(&configs, &iters);
        for (&target, reports) in targets_for(nranks).iter().zip(&swept) {
            let times: Vec<f64> = reports.iter().map(|r| r.t_total).collect();
            let percents: Vec<f64> = reports.iter().map(|r| r.percent_reduced).collect();
            // Convergence diagnostics over the second half of the run.
            let half = times.len() / 2;
            let settled = &times[half..];
            let mean: f64 = settled.iter().sum::<f64>() / settled.len() as f64;
            let within = settled
                .iter()
                .filter(|t| (**t - target).abs() / target < 0.5)
                .count();
            println!(
                "target {target:>6.1} s: settled mean {mean:>7.2} s, \
                 {within}/{} late iterations within 50% of target, final p = {:.0}%",
                settled.len(),
                percents.last().expect("non-empty run")
            );
            for (i, r) in reports.iter().enumerate() {
                csv.push(format!(
                    "{nranks},{target},{i},{:.4},{:.2}",
                    r.t_total, r.percent_reduced
                ));
            }
        }
    }
    let path = write_csv(csv_name, "nranks,target,iteration,t_total,percent", &csv);
    println!("csv: {}", path.display());
}

pub fn run(ctx: &Ctx, scale: &Scale) {
    run_adaptation(
        ctx,
        scale,
        "Fig 10 — adaptation without redistribution",
        "fig10_adapt_no_redist.csv",
        |target| PipelineConfig::default().with_target(target),
        targets,
    );
}

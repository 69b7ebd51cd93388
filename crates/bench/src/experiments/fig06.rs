//! Fig 6: per-iteration rendering time at fixed reduction percentages
//! (no redistribution; VAR scores, as in the paper's §V-D).

use apc_core::PipelineConfig;

use crate::experiments::Ctx;
use crate::harness::{print_table, write_csv, Scale};

/// The paper's percentage sets per scale.
pub fn percent_set(nranks: usize) -> &'static [f64] {
    if nranks == 64 {
        &[0.0, 80.0, 90.0, 98.0, 100.0]
    } else {
        &[0.0, 90.0, 94.0, 98.0, 100.0]
    }
}

const HEADER: &str = "nranks,percent,iteration,t_render";

pub fn run(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters = prepared.subset(scale.component_iters);
        let first = csv.len();
        let configs: Vec<PipelineConfig> = percent_set(nranks)
            .iter()
            .map(|&p| PipelineConfig::default().with_fixed_percent(p))
            .collect();
        let swept = prepared.run_sweep(&configs, &iters);
        for (&p, reports) in percent_set(nranks).iter().zip(&swept) {
            for r in reports {
                csv.push(format!("{nranks},{p},{},{:.4}", r.iteration, r.t_render));
            }
        }
        print_table(
            &format!("Fig 6 — per-iteration rendering time (s), {nranks} ranks"),
            HEADER,
            &csv[first..],
        );
    }
    let path = write_csv("fig06_fixed_percent.csv", HEADER, &csv);
    println!("csv: {}", path.display());
}

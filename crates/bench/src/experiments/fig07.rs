//! Fig 7: rendering time (avg/min/max over the iterations) as a function
//! of the reduction percentage, no redistribution.
//!
//! The paper's key shape: the curve stays *flat* until a majority of
//! blocks are reduced, because high-scored blocks cluster on a few ranks
//! whose load only shrinks once the percentage reaches their blocks — and
//! because most blocks are transparent to the isosurface anyway (§V-D).

// apc-lint: allow-file(unwrap-in-lib): bench harness — panicking on a bad run or I/O error is the failure mode we want
use apc_core::PipelineConfig;

use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

const HEADER: &str = "nranks,percent,avg_render,min_render,max_render";

pub fn run(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters = prepared.subset(scale.component_iters);
        let first = csv.len();
        let mut series = Vec::new();
        // The whole percentage sweep replays through one rank session.
        let configs: Vec<PipelineConfig> = scale
            .sweep
            .iter()
            .map(|&p| PipelineConfig::default().with_fixed_percent(p))
            .collect();
        let swept = prepared.run_sweep(&configs, &iters);
        for (&p, reports) in scale.sweep.iter().zip(&swept) {
            let (avg, min, max) = stats(reports.iter().map(|r| r.t_render));
            csv.push(format!("{nranks},{p},{avg:.4},{min:.4},{max:.4}"));
            series.push((p, avg));
        }
        print_table(
            &format!("Fig 7 — rendering time vs percentage, {nranks} ranks (s)"),
            HEADER,
            &csv[first..],
        );
        // Quantify the flat-then-drop shape: time at 50% vs 0% and 100%.
        let at = |p: f64| {
            series
                .iter()
                .min_by(|a, b| (a.0 - p).abs().total_cmp(&(b.0 - p).abs()))
                .expect("non-empty sweep")
                .1
        };
        println!(
            "shape check: t(50%)/t(0%) = {:.2} (paper: near 1 — flat), \
             t(100%)/t(0%) = {:.3} (paper: ~1/160)",
            at(50.0) / at(0.0),
            at(100.0) / at(0.0)
        );
    }
    let path = write_csv("fig07_percent_sweep.csv", HEADER, &csv);
    println!("csv: {}", path.display());
}

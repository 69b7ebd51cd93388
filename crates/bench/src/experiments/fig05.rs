//! Fig 5: rendering time with load redistribution — NONE, random SHUFFLE,
//! and round-robin driven by each metric's scores, at 64 and 400 ranks,
//! with no block reduction.

use apc_core::{PipelineConfig, Redistribution};

use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

const HEADER: &str = "nranks,strategy,avg_render,min_render,max_render,avg_comm";

pub fn run(ctx: &Ctx, scale: &Scale) {
    let metrics = ["LEA", "FPZIP", "ITL", "RANGE", "VAR", "TRILIN"];
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters = prepared.subset(scale.component_iters);
        let first = csv.len();

        let mut run_case = |label: &str, config: PipelineConfig| {
            let reports = prepared.run(config, &iters);
            let (avg, min, max) = stats(reports.iter().map(|r| r.t_render));
            let (comm, _, _) = stats(reports.iter().map(|r| r.t_redistribute));
            csv.push(format!(
                "{nranks},{label},{avg:.4},{min:.4},{max:.4},{comm:.4}"
            ));
            avg
        };

        let t_none = run_case("NONE", PipelineConfig::default());
        let t_shuffle = run_case(
            "SHUFFLE",
            PipelineConfig::default()
                .with_redistribution(Redistribution::RandomShuffle { seed: scale.seed }),
        );
        let mut t_rr_best = f64::INFINITY;
        for m in metrics {
            let t = run_case(
                m,
                PipelineConfig::default()
                    .with_metric(m)
                    .with_redistribution(Redistribution::RoundRobin),
            );
            t_rr_best = t_rr_best.min(t);
        }

        print_table(
            &format!("Fig 5 — rendering time with redistribution, {nranks} ranks (s)"),
            HEADER,
            &csv[first..],
        );
        println!(
            "speedup from redistribution alone: {:.1}x (shuffle) / {:.1}x (round-robin); \
             paper: {}x at {} ranks",
            t_none / t_shuffle,
            t_none / t_rr_best,
            if nranks == 64 { 4 } else { 5 },
            nranks
        );
    }
    let path = write_csv("fig05_redistribution.csv", HEADER, &csv);
    println!("csv: {}", path.display());
}

//! Fig 9: rendering time vs reduction percentage with redistribution
//! enabled or disabled (None / round-robin / random shuffle).
//!
//! Paper findings to reproduce: redistribution improves rendering time *and*
//! reduces its variability, and round-robin ≈ random (score-guided
//! placement buys nothing over statistical balancing).

use apc_core::{PipelineConfig, Redistribution};

use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

const HEADER: &str = "nranks,strategy,percent,avg_render,min_render,max_render";

pub fn run(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters = prepared.subset(scale.component_iters);
        let first = csv.len();
        let strategies = [
            ("NONE", Redistribution::None),
            ("RR", Redistribution::RoundRobin),
            (
                "SHUFFLE",
                Redistribution::RandomShuffle { seed: scale.seed },
            ),
        ];
        // The whole percent × strategy grid goes through one rank session,
        // flattened row-major (strategy fastest).
        let configs: Vec<PipelineConfig> = scale
            .sweep
            .iter()
            .flat_map(|&p| {
                strategies.iter().map(move |&(_, strat)| {
                    PipelineConfig::default()
                        .with_redistribution(strat)
                        .with_fixed_percent(p)
                })
            })
            .collect();
        let swept = prepared.run_sweep(&configs, &iters);
        for (&p, per_strategy) in scale.sweep.iter().zip(swept.chunks(strategies.len())) {
            for ((label, _), reports) in strategies.iter().zip(per_strategy) {
                let (avg, min, max) = stats(reports.iter().map(|r| r.t_render));
                csv.push(format!("{nranks},{label},{p},{avg:.4},{min:.4},{max:.4}"));
            }
        }
        print_table(
            &format!("Fig 9 — rendering time vs percentage and strategy, {nranks} ranks (s)"),
            HEADER,
            &csv[first..],
        );
    }
    let path = write_csv("fig09_reduce_plus_redist.csv", HEADER, &csv);
    println!("csv: {}", path.display());
}

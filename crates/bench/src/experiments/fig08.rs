//! Fig 8: redistribution (communication) time as a function of the
//! reduction percentage, round-robin vs random shuffle, LEA metric (the
//! paper's §V-E setup). More reduction ⇒ less data to exchange ⇒ shorter
//! communication.

use apc_core::{PipelineConfig, Redistribution};

use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

const HEADER: &str = "nranks,strategy,percent,avg_comm,min_comm,max_comm";

pub fn run(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters = prepared.subset(scale.component_iters);
        let first = csv.len();
        let mut first_last: Vec<(f64, f64)> = Vec::new();
        for &p in &scale.sweep {
            let mut pair = (0.0, 0.0);
            for (idx, (label, strat)) in [
                ("RR", Redistribution::RoundRobin),
                (
                    "SHUFFLE",
                    Redistribution::RandomShuffle { seed: scale.seed },
                ),
            ]
            .into_iter()
            .enumerate()
            {
                let reports = prepared.run(
                    PipelineConfig::default()
                        .with_metric("LEA")
                        .with_redistribution(strat)
                        .with_fixed_percent(p),
                    &iters,
                );
                let (avg, min, max) = stats(reports.iter().map(|r| r.t_redistribute));
                csv.push(format!("{nranks},{label},{p},{avg:.5},{min:.5},{max:.5}"));
                if idx == 0 {
                    pair.0 = avg;
                } else {
                    pair.1 = avg;
                }
            }
            first_last.push(pair);
        }
        print_table(
            &format!("Fig 8 — redistribution time vs percentage, {nranks} ranks (s)"),
            HEADER,
            &csv[first..],
        );
        let head = first_last.first().expect("sweep non-empty");
        let tail = first_last.last().expect("sweep non-empty");
        println!(
            "shape check: comm time decreases with reduction \
             (RR {:.3} s -> {:.3} s; paper: ~1.2 -> ~0 s at 64 ranks, ~0.6 -> ~0 at 400)",
            head.0, tail.0
        );
    }
    let path = write_csv("fig08_comm_time.csv", HEADER, &csv);
    println!("csv: {}", path.display());
}

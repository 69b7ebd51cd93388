//! Fig 3: pairwise comparison of block orderings produced by the six
//! metrics (15 scatter plots in the paper; here the rank pairs as CSV plus
//! the Spearman correlation of every pair).

use apc_cm1::ReflectivityDataset;
use apc_metrics::{ranks_by_score, spearman, standard_six};

use crate::harness::{print_table, write_csv, Scale};

pub fn run(scale: &Scale) {
    let dataset = ReflectivityDataset::paper_scaled(64, scale.seed).expect("dataset");
    let it = dataset.sample_iterations(3)[1];
    let metrics = standard_six();

    // Score every block with every metric (one pass over the data per
    // metric — exactly the pipeline's step 1 on a snapshot).
    let n = dataset.decomp().n_blocks();
    let mut scores: Vec<Vec<f64>> = vec![Vec::with_capacity(n); metrics.len()];
    for rank in 0..dataset.decomp().nranks() {
        for block in dataset.rank_blocks(it, rank) {
            let samples = block.samples();
            for (m, metric) in metrics.iter().enumerate() {
                scores[m].push(metric.score(&samples, block.dims()));
            }
        }
    }
    // Blocks arrive rank-major; scores index == visit order, which is the
    // same for every metric, so rank correlations are unaffected.
    let ranks: Vec<Vec<usize>> = scores.iter().map(|s| ranks_by_score(s)).collect();

    // CSV: one row per block with its rank under each metric.
    let names: Vec<&str> = metrics.iter().map(|m| m.name()).collect();
    let names = names.join(",");
    let rows: Vec<String> = (0..n)
        .map(|b| {
            let cols: Vec<String> = ranks.iter().map(|r| r[b].to_string()).collect();
            format!("{b},{}", cols.join(","))
        })
        .collect();
    let path = write_csv("fig03_metric_ranks.csv", &format!("block,{names}"), &rows);

    // Spearman matrix, printed only: one CSV-shaped line per metric.
    let matrix: Vec<String> = metrics
        .iter()
        .zip(&scores)
        .map(|(mi, si)| {
            let rhos: Vec<String> = scores
                .iter()
                .map(|sj| format!("{:+.3}", spearman(si, sj)))
                .collect();
            format!("{},{}", mi.name(), rhos.join(","))
        })
        .collect();
    print_table(
        "Fig 3 — Spearman rank correlation between metrics",
        &format!("metric,{names}"),
        &matrix,
    );
    println!(
        "paper observations to check: all pairs agree on the flat blocks \
         (strong positive rho everywhere), VAR~TRILIN is among the highest pairs."
    );
    println!("csv: {}", path.display());
}

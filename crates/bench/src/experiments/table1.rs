//! Table I: computation time of the scoring metrics on 64 and 400 cores
//! for the paper's workload (16,000 blocks of 55×55×38 floats).
//!
//! Two columns per scale: the *model* time (the calibrated per-point cost
//! the pipeline's virtual clock charges) and a *measured* extrapolation
//! (this machine's real kernel throughput on sampled storm blocks, scaled
//! to the paper's per-core workload). The paper's own numbers are printed
//! alongside for comparison.

use std::time::Instant;

use apc_cm1::ReflectivityDataset;
use apc_metrics::standard_six;

use crate::harness::{print_table, write_csv, Scale};

/// Paper Table I (seconds), for the comparison column.
const PAPER: &[(&str, f64, f64)] = &[
    ("LEA", 2.03, 0.32),
    ("FPZIP", 8.85, 1.42),
    ("ITL", 13.30, 1.97),
    ("RANGE", 7.03, 1.12),
    ("VAR", 1.41, 0.23),
    ("TRILIN", 14.30, 2.28),
];

/// Points per rank in the paper's workload.
fn paper_points_per_rank(nranks: usize) -> f64 {
    16_000.0 * (55 * 55 * 38) as f64 / nranks as f64
}

pub fn run(scale: &Scale) {
    let dataset = ReflectivityDataset::paper_scaled(64, scale.seed).expect("dataset");
    let it = dataset.sample_iterations(3)[1];

    // Sample blocks spread over the domain (storm and clear air alike).
    let n_blocks = dataset.decomp().n_blocks();
    let sample: Vec<_> = (0..n_blocks)
        .step_by((n_blocks / 48).max(1))
        .map(|id| dataset.block(it, id as u32))
        .collect();
    let sample_points: usize = sample.iter().map(|b| b.dims().len()).sum();

    let mut csv = Vec::new();
    for metric in standard_six() {
        // Real kernel throughput on this machine.
        #[expect(
            clippy::disallowed_methods,
            reason = "measuring the harness's real elapsed time is this bench's purpose"
        )]
        let t0 = Instant::now();
        let mut sink = 0.0;
        for b in &sample {
            sink += metric.score(&b.samples(), b.dims());
        }
        let wall = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        let measured_per_point = wall / sample_points as f64;

        let mut csv_row = metric.name().to_string();
        for &nranks in &[64usize, 400] {
            let pts = paper_points_per_rank(nranks);
            let model = metric.cost_per_point() * pts;
            let measured = measured_per_point * pts;
            let paper = PAPER
                .iter()
                .find(|(n, _, _)| *n == metric.name())
                .map(|&(_, p64, p400)| if nranks == 64 { p64 } else { p400 })
                .unwrap_or(f64::NAN);
            csv_row.push_str(&format!(",{model:.4},{measured:.4},{paper:.2}"));
        }
        csv.push(csv_row);
    }

    let header = "metric,model_64,measured_64,paper_64,model_400,measured_400,paper_400";
    print_table("Table I — metric computation time (seconds)", header, &csv);
    println!(
        "note: RANGE deviates from the paper by design \
         (our RANGE is a plain min/max scan)."
    );
    let path = write_csv("table1_metric_times.csv", header, &csv);
    println!("csv: {}", path.display());
}

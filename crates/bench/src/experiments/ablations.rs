//! Ablations of design choices the paper discusses in text.

use std::time::Instant;

use apc_cm1::ReflectivityDataset;
use apc_comm::NetModel;
use apc_core::{adapt_percent, PipelineConfig, Redistribution, SortStrategy};
use apc_metrics::{spearman, BlockScorer, Entropy};

use crate::experiments::context::prepare;
use crate::experiments::Ctx;
use crate::harness::{print_table, stats, write_csv, Scale};

/// §IV-B-c: entropy histogram bin count — 32 vs 256 vs 1,024. The paper
/// picked 256 ("better discrimination among blocks for a good
/// performance"); we report the discrimination (distinct scores and rank
/// agreement with 256 bins) and the kernel cost per bin count.
pub fn entropy_bins(scale: &Scale) {
    let dataset = ReflectivityDataset::paper_scaled(64, scale.seed).expect("dataset");
    let it = dataset.sample_iterations(3)[1];
    let blocks: Vec<_> = (0..dataset.decomp().nranks())
        .flat_map(|r| dataset.rank_blocks(it, r))
        .collect();

    let reference: Vec<f64> = {
        let e = Entropy::with_bins(256);
        blocks
            .iter()
            .map(|b| e.score(&b.samples(), b.dims()))
            .collect()
    };

    let mut csv = Vec::new();
    for bins in [32usize, 256, 1024] {
        let e = Entropy::with_bins(bins);
        #[expect(
            clippy::disallowed_methods,
            reason = "measuring the harness's real elapsed time is this bench's purpose"
        )]
        let t0 = Instant::now();
        let scores: Vec<f64> = blocks
            .iter()
            .map(|b| e.score(&b.samples(), b.dims()))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let mut distinct = scores.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let rho = spearman(&scores, &reference);
        csv.push(format!("{bins},{},{rho:.4},{wall:.4}", distinct.len()));
    }
    let header = "bins,distinct_scores,spearman_vs_256,kernel_wall";
    print_table(
        "Ablation — ITL histogram bin count (6400 blocks)",
        header,
        &csv,
    );
    let path = write_csv("ablation_entropy_bins.csv", header, &csv);
    println!("csv: {}", path.display());
}

/// §IV-C: gather-sort-broadcast (the paper's choice) vs a parallel sample
/// sort. At the paper's block counts the sort is negligible either way —
/// this quantifies the crossover argument.
pub fn sort_strategy(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let prepared = ctx.at(nranks);
        let iters = prepared.subset(scale.component_iters.min(3));
        for (label, strat) in [
            ("gather-sort-bcast", SortStrategy::GatherSortBroadcast),
            ("sample-sort", SortStrategy::SampleSort),
        ] {
            let config = PipelineConfig {
                sort: strat,
                ..Default::default()
            };
            let reports = prepared.run(config, &iters);
            let (avg, _, _) = stats(reports.iter().map(|r| r.t_sort));
            csv.push(format!("{nranks},{label},{avg:.6}"));
        }
    }
    let header = "nranks,strategy,t_sort";
    print_table(
        "Ablation — global sort strategy (avg sort-step time, s)",
        header,
        &csv,
    );
    let path = write_csv("ablation_sort.csv", header, &csv);
    println!("csv: {}", path.display());
}

/// §VI: "platforms with lower network performance" — rerun the
/// redistribution experiment on a GigE-like network. A session's network
/// is fixed, so the GigE arm prepares its own input over the same
/// iterations (from the store under `APC_DATASET`, like the shared one)
/// and drops it before the next rank count.
pub fn slow_network(ctx: &Ctx, scale: &Scale) {
    let mut csv = Vec::new();
    for &nranks in &scale.rank_counts {
        let gemini = ctx.at(nranks);
        let iters = gemini.subset(scale.component_iters.min(3));
        let gige_net = NetModel::gigabit_ethernet().for_paper_scale();
        let gige = prepare(scale, nranks, gige_net, |_| iters.clone());
        for (label, prepared) in [("gemini", gemini), ("gige", &gige)] {
            let config = PipelineConfig::default().with_redistribution(Redistribution::RoundRobin);
            let reports = prepared.run(config, &iters);
            let (comm, _, _) = stats(reports.iter().map(|r| r.t_redistribute));
            let (render, _, _) = stats(reports.iter().map(|r| r.t_render));
            csv.push(format!("{nranks},{label},{comm:.5},{render:.4}"));
        }
    }
    let header = "nranks,network,t_comm,t_render";
    print_table(
        "Ablation — network sensitivity of redistribution (s)",
        header,
        &csv,
    );
    let path = write_csv("ablation_network.csv", header, &csv);
    println!("csv: {}", path.display());
}

/// §IV-C outlook: reduction lattice size. The paper keeps 2×2×2 corners and
/// defers "more elaborate downsampling strategies" to future work; this
/// sweeps k ∈ {2, 3, 4} and reports the render-time / fidelity trade-off
/// (fidelity = mean reconstruction MSE over the reduced blocks).
pub fn downsample_size(ctx: &Ctx, scale: &Scale) {
    let nranks = scale.rank_counts[0];
    let prepared = ctx.at(nranks);
    let iters = prepared.subset(scale.component_iters.min(3));
    let dataset = &prepared.dataset;

    // Fidelity: reconstruction error over a sample of storm blocks.
    let it = iters[iters.len() / 2];
    let sample: Vec<_> = (0..dataset.decomp().n_blocks())
        .step_by((dataset.decomp().n_blocks() / 64).max(1))
        .map(|id| dataset.block(it, id as u32))
        .collect();

    let mut csv = Vec::new();
    for keep in [2usize, 3, 4] {
        let config = PipelineConfig::default()
            .with_fixed_percent(95.0)
            .with_reduce_keep(keep);
        let reports = prepared.run(config, &iters);
        let (t_render, _, _) = stats(reports.iter().map(|r| r.t_render));
        let mse: f64 = sample
            .iter()
            .map(|b| {
                let rec = b.downsampled(keep).samples().to_vec();
                b.samples()
                    .iter()
                    .zip(&rec)
                    .map(|(a, r)| ((a - r) as f64).powi(2))
                    .sum::<f64>()
                    / rec.len() as f64
            })
            .sum::<f64>()
            / sample.len() as f64;
        let bytes = sample[0].downsampled(keep).nbytes();
        csv.push(format!("{keep},{t_render:.4},{mse:.4},{bytes}"));
    }
    let header = "keep,t_render,reconstruction_mse,bytes_per_block";
    print_table(
        &format!("Ablation — reduction lattice size (95% reduced, {nranks} ranks)"),
        header,
        &csv,
    );
    let path = write_csv("ablation_downsample.csv", header, &csv);
    println!("csv: {}", path.display());
}

/// Controller variants: paper Algorithm 1 vs a naive fixed-step controller,
/// replayed against a recorded t(p) response with the pipeline's own
/// log-normal noise. Reports iterations-to-converge and mean |error| after
/// convergence.
pub fn controller_variants(ctx: &Ctx, scale: &Scale) {
    // Record the t(p) response once from the first prepared rank count's
    // dataset (the stored one under `APC_DATASET`).
    let prepared = ctx.at(scale.rank_counts[0]);
    let iters = prepared.subset(2);
    let probe: Vec<(f64, f64)> = [0.0, 50.0, 80.0, 90.0, 95.0, 100.0]
        .iter()
        .map(|&p| {
            let mut config = PipelineConfig::default().with_fixed_percent(p);
            config.cost = config.cost.deterministic();
            let r = prepared.run(config, &iters[..1]);
            (p, r[0].t_total)
        })
        .collect();
    let response = |p: f64| -> f64 {
        // Piecewise-linear interpolation of the probe.
        let mut prev = probe[0];
        for &(pp, tt) in &probe[1..] {
            if p <= pp {
                let f = (p - prev.0) / (pp - prev.0).max(1e-9);
                return prev.1 + f * (tt - prev.1);
            }
            prev = (pp, tt);
        }
        prev.1
    };
    let noise = |i: usize| 1.0 + 0.06 * ((i as f64 * 2.399).sin()); // ±6%, deterministic

    let target = response(0.0) * 0.25;
    let n_iters = 40;
    let mut csv = Vec::new();
    for variant in ["algorithm1", "fixed-step-5"] {
        let mut p = 0.0f64;
        let mut prev = (0.0f64, 100.0f64);
        let mut errs = Vec::new();
        let mut converged_at = None;
        for i in 0..n_iters {
            let t = response(p) * noise(i);
            errs.push(((t - target) / target).abs());
            if converged_at.is_none() && errs.last().copied().expect("pushed") < 0.25 {
                converged_at = Some(i);
            }
            let next = match variant {
                "algorithm1" => {
                    let next = adapt_percent(target, prev.0, prev.1, t, p);
                    prev = (t, p);
                    next
                }
                _ => {
                    // Naive: step 5 points toward the target.
                    if t > target {
                        (p + 5.0).min(100.0)
                    } else {
                        (p - 5.0).max(0.0)
                    }
                }
            };
            p = next;
        }
        let tail = &errs[n_iters / 2..];
        let mean_err = tail.iter().sum::<f64>() / tail.len() as f64;
        csv.push(format!(
            "{variant},{},{mean_err:.4}",
            converged_at.map_or(-1i64, |i| i as i64)
        ));
    }
    let header = "controller,converged_at,late_mean_err";
    print_table(
        "Ablation — controller variants (converge to 25% of unreduced time)",
        header,
        &csv,
    );
    let path = write_csv("ablation_controller.csv", header, &csv);
    println!("csv: {}", path.display());
}

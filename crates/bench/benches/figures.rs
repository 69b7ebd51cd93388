//! The full figure suite: regenerates every table and figure of the paper
//! in one run (`cargo bench -p apc-bench --bench figures`).
//!
//! Defaults to the quick scale; set `APC_SCALE=full` for the paper's exact
//! iteration counts and sweep resolution. Output: ASCII tables on stdout
//! and CSV/PPM/PGM artifacts under `target/experiments/`.

use apc_bench::experiments::{self, Ctx};
use apc_bench::Scale;

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "reports the suite's real elapsed time; no figure reads it"
    )]
    let t0 = std::time::Instant::now();
    let scale = Scale::from_env();
    println!(
        "figure suite at {:?} scale (APC_SCALE=full for paper settings)",
        std::env::var("APC_SCALE").unwrap_or_else(|_| "quick".into())
    );

    // Experiments that build their own data and sessions.
    experiments::table1::run(&scale);
    experiments::fig01::run(&scale);
    experiments::fig03::run(&scale);
    experiments::fig04::run(&scale);
    experiments::fig14::run(&scale);
    experiments::fig15::run(&scale);
    experiments::ablations::entropy_bins(&scale);

    // Pipeline experiments share one prepared dataset per rank count.
    let ctx = Ctx::new(&scale);
    experiments::fig05::run(&ctx, &scale);
    experiments::fig06::run(&ctx, &scale);
    experiments::fig07::run(&ctx, &scale);
    experiments::fig08::run(&ctx, &scale);
    experiments::fig09::run(&ctx, &scale);
    experiments::fig10::run(&ctx, &scale);
    experiments::fig11::run(&ctx, &scale);
    experiments::fig12::run(&ctx, &scale);
    experiments::fig13::run(&ctx, &scale);
    experiments::ablations::sort_strategy(&ctx, &scale);
    experiments::ablations::downsample_size(&ctx, &scale);
    experiments::ablations::slow_network(&ctx, &scale);
    experiments::ablations::controller_variants(&ctx, &scale);

    println!(
        "\nfigure suite completed in {:.0} s",
        t0.elapsed().as_secs_f64()
    );
}

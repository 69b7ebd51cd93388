//! Storm tracking: the paper's end-to-end scenario. The budgeted in situ
//! pipeline replays the stored CM1-like timeline — as the paper does, "to
//! avoid running CM1's computational part" (§V-A) — while the supercell
//! crosses the domain. Writes per-iteration measurements and a plan-view
//! reflectivity frame every few iterations.
//!
//! ```text
//! cargo run --release --example storm_tracking
//! ```

use std::path::PathBuf;

use insitu::cm1::ReflectivityDataset;
use insitu::pipeline::{run_experiment, PipelineConfig, Redistribution};
use insitu::render::Colormap;

fn main() {
    let out = PathBuf::from("target/storm_tracking");
    std::fs::create_dir_all(&out).expect("create output dir");

    let dataset = ReflectivityDataset::tiny(16, 7).expect("tiny decomposition");
    let iterations = dataset.sample_iterations(12);

    // Budgeted pipeline with redistribution.
    let config = PipelineConfig::default()
        .with_metric("VAR")
        .with_redistribution(Redistribution::RandomShuffle { seed: 7 })
        .with_target(2.5);

    let cmap = Colormap::reflectivity();
    println!("iter  percent  t_total  triangles");
    let reports = run_experiment(&dataset, config, &iterations);
    for (frame, (r, &it)) in reports.iter().zip(&iterations).enumerate() {
        println!(
            "{it:>4}  {:>6.1}%  {:>7.2}  {:>9}",
            r.percent_reduced, r.t_total, r.triangles_total
        );
        if frame % 3 == 0 {
            let field = dataset.field(it);
            let img = cmap.render_column_max(&field);
            img.write_ppm(&out.join(format!("frame_{it:04}.ppm")))
                .expect("write frame");
        }
    }
    println!("\nframes written to {}", out.display());
}

//! Fig 4: scoremaps — greyscale plan views of per-block scores (darker =
//! higher) next to the original reflectivity field.

use apc_cm1::ReflectivityDataset;
use apc_metrics::standard_six;
use apc_render::{render_scoremap, Colormap};

use crate::harness::{out_dir, Scale};

pub fn run(scale: &Scale) {
    let dataset = ReflectivityDataset::paper_scaled(64, scale.seed).expect("dataset");
    let it = dataset.sample_iterations(3)[1];
    let dir = out_dir();

    // (a) the original dBZ field (composite reflectivity plan view).
    let field = dataset.field(it);
    let cmap = Colormap::reflectivity();
    cmap.render_column_max(&field)
        .write_ppm(&dir.join("fig04a_original_dbz.ppm"))
        .expect("write original");

    // (b..g) one scoremap per metric.
    println!("\n== Fig 4 — scoremaps (darker = higher score) ==");
    for metric in standard_six() {
        let mut scores = Vec::with_capacity(dataset.decomp().n_blocks());
        for rank in 0..dataset.decomp().nranks() {
            for block in dataset.rank_blocks(it, rank) {
                scores.push((block.id, metric.score(&block.samples(), block.dims())));
            }
        }
        let img = render_scoremap(dataset.decomp(), &scores, 12);
        let name = format!("fig04_scoremap_{}.pgm", metric.name().to_lowercase());
        img.write_pgm(&dir.join(&name)).expect("write scoremap");
        // Quantify locality: share of total score mass inside the storm
        // quarter of the domain (the paper's visual argument, made a number).
        let total: f64 = scores.iter().map(|(_, s)| s).sum();
        let storm_center = dataset.storm().center(dataset.storm().tau(it));
        let gb = dataset.decomp().global_block_grid();
        let hot: f64 = scores
            .iter()
            .filter(|(id, _)| {
                let (bi, bj, _) = dataset.decomp().block_coords(*id);
                let x = (bi as f32 + 0.5) / gb.nx as f32;
                let y = (bj as f32 + 0.5) / gb.ny as f32;
                (x - storm_center[0]).abs() < 0.15 && (y - storm_center[1]).abs() < 0.15
            })
            .map(|(_, s)| s)
            .sum();
        println!(
            "{:>7}: {:>5.1}% of score mass within +-0.15 of the storm center -> {}",
            metric.name(),
            100.0 * hot / total.max(1e-30),
            name
        );
    }
    println!("images: {}", dir.display());
}

//! Scoremap explorer: the tool the paper proposes for guiding metric
//! choice (§V-B) — "we display an image and show how each block part of
//! the image is scored". Renders a scoremap per metric next to the
//! original reflectivity plan view.
//!
//! ```text
//! cargo run --release --example scoremap_explorer [METRIC ...]
//! ```
//!
//! With no arguments, renders the paper's six representative metrics.

use std::path::PathBuf;

use insitu::cm1::ReflectivityDataset;
use insitu::metrics::by_name;
use insitu::render::{render_scoremap, Colormap};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        ["RANGE", "VAR", "ITL", "LEA", "FPZIP", "TRILIN"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args
    };

    let out = PathBuf::from("target/scoremaps");
    std::fs::create_dir_all(&out).expect("create output dir");

    let dataset = ReflectivityDataset::tiny(16, 42).expect("tiny decomposition");
    let it = dataset.sample_iterations(3)[1];

    // The reference image: composite reflectivity.
    let field = dataset.field(it);
    Colormap::reflectivity()
        .render_column_max(&field)
        .write_ppm(&out.join("original_dbz.ppm"))
        .expect("write original");

    for name in &names {
        let Some(metric) = by_name(name) else {
            eprintln!("unknown metric {name:?}");
            continue;
        };
        let mut scores = Vec::new();
        for rank in 0..dataset.decomp().nranks() {
            for block in dataset.rank_blocks(it, rank) {
                scores.push((block.id, metric.score(&block.samples(), block.dims())));
            }
        }
        let img = render_scoremap(dataset.decomp(), &scores, 16);
        let path = out.join(format!("scoremap_{}.pgm", name.to_lowercase()));
        img.write_pgm(&path).expect("write scoremap");
        let top = scores
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("blocks scored");
        let (bi, bj, bk) = dataset.decomp().block_coords(top.0);
        println!(
            "{name:>10}: top block at grid ({bi},{bj},{bk}) score {:.3} -> {}",
            top.1,
            path.display()
        );
    }
    println!(
        "explore the PGMs in {} (darker = higher score)",
        out.display()
    );
}

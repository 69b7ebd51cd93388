//! Wind streamlines: the paper's second 3D visualization scenario
//! ("streamlines based on wind vectors", §IV-B), plus the BIL-style
//! store-and-replay workflow of §V-A — the dataset is written to disk once
//! and the visualization kernel reloads blocks from the file.
//!
//! ```text
//! cargo run --release -p insitu --example wind_streamlines
//! ```

use std::path::PathBuf;

use insitu::cm1::{open_dataset, write_dataset, ReflectivityDataset, DBZ_ISOVALUE};
use insitu::render::math::Vec3;
use insitu::render::{
    block_isosurface, seed_grid, trace_streamline, Camera, Framebuffer, StreamlineOptions,
    TriangleMesh,
};
use insitu::store::CodecKind;

fn main() {
    let out = PathBuf::from("target/streamlines");
    std::fs::create_dir_all(&out).expect("create output dir");

    // Store a couple of iterations to disk (the paper's 3-day-run dataset)
    // as a chunked, fpz-compressed store, then reload block by block.
    let dataset = ReflectivityDataset::tiny(16, 42).expect("tiny decomposition");
    let it = dataset.sample_iterations(3)[1];
    let store_dir = out.join("dataset");
    write_dataset(&dataset, &[it], &store_dir, CodecKind::Fpz, None).expect("store dataset");
    let stored = open_dataset(&store_dir).expect("reload dataset");
    println!("stored iterations: {:?}", stored.iterations());

    // Rebuild the isosurface from the *stored* blocks.
    let mut mesh = TriangleMesh::new();
    for rank in 0..dataset.decomp().nranks() {
        for block in stored.rank_blocks(it, rank).expect("read blocks") {
            let (m, _) = block_isosurface(&block, dataset.coords(), DBZ_ISOVALUE);
            mesh.merge(&m);
        }
    }

    // Trace streamlines of the storm's wind field from a low-level seed
    // grid (normalized coordinates).
    let storm = dataset.storm();
    let tau = storm.tau(it);
    let opts = StreamlineOptions {
        step: 0.5,
        max_steps: 4000,
        ..StreamlineOptions::within([0.0; 3], [1.0; 3])
    };
    let mut lines = Vec::new();
    for seed in seed_grid([0.1, 0.1, 0.0], [0.9, 0.9, 0.0], 9, 9, 0.06) {
        let line = trace_streamline(|p| storm.wind(p, tau), seed, &opts);
        if line.len() > 10 {
            lines.push(line);
        }
    }

    // Compose: isosurface + streamlines in physical coordinates.
    let (lo, hi) = dataset.coords().bounds();
    let to_phys = |p: Vec3| Vec3 {
        x: lo[0] + p.x * (hi[0] - lo[0]),
        y: lo[1] + p.y * (hi[1] - lo[1]),
        z: lo[2] + p.z * (hi[2] - lo[2]),
    };
    let cam = Camera::framing(Vec3::from_array(lo), Vec3::from_array(hi));
    let mut fb = Framebuffer::new(900, 675, [8, 8, 20]);
    fb.draw_mesh(&mesh, &cam, [225, 225, 235]);
    for line in &lines {
        let phys: Vec<Vec3> = line.iter().map(|&p| to_phys(p)).collect();
        fb.draw_polyline(&phys, &cam, [90, 200, 255]);
    }
    let path = out.join("storm_streamlines.ppm");
    fb.into_image().write_ppm(&path).expect("write image");

    println!(
        "{} streamlines around a {}-triangle isosurface -> {}",
        lines.len(),
        mesh.triangle_count(),
        path.display()
    );
}

//! Fig 1: rendering of the reflectivity field with original vs filtered
//! (all blocks reduced to 2×2×2) data — the motivating images.
//!
//! Produces four images under `target/experiments/`:
//! `fig01a_original_iso.ppm`, `fig01b_filtered_iso.ppm` (45 dBZ isosurface)
//! and `fig01c_original_cmap.ppm`, `fig01d_filtered_cmap.ppm` (colormap of
//! a low-level slice), plus the triangle counts and modeled render times
//! that back the paper's "50 seconds vs 1 second" observation.

use apc_cm1::{ReflectivityDataset, DBZ_ISOVALUE};
use apc_grid::Field3;
use apc_render::{
    block_isosurface, marching_tetrahedra, Camera, Colormap, Framebuffer, IsoStats,
    RenderCostModel, TriangleMesh,
};

use crate::harness::{out_dir, Scale};

const IMG_W: usize = 880;
const IMG_H: usize = 660;

pub fn run(scale: &Scale) {
    let dataset = ReflectivityDataset::paper_scaled(64, scale.seed).expect("dataset");
    let it = dataset.sample_iterations(3)[1];
    let coords = dataset.coords();
    let field = dataset.field(it);

    // (a) original isosurface over the whole domain.
    let (orig_mesh, orig_stats) =
        marching_tetrahedra(field.as_slice(), field.dims(), DBZ_ISOVALUE, |i, j, k| {
            coords.position(i, j, k)
        });

    // (b) filtered: every block reduced to its 8 corners, then rendered.
    let mut filt_mesh = TriangleMesh::new();
    let mut filt_stats = IsoStats::default();
    let mut filtered_field = Field3::filled(field.dims(), apc_cm1::DBZ_MIN);
    for id in dataset.decomp().all_blocks() {
        let ext = dataset.decomp().block_extent(id);
        let block = apc_grid::Block::from_field(id, ext, &field).expect("block in domain");
        let reduced = block.reduced();
        let (mesh, stats) = block_isosurface(&reduced, coords, DBZ_ISOVALUE);
        filt_mesh.merge(&mesh);
        filt_stats.merge(stats);
        // Rebuild the reduced field for the colormap comparison (what a
        // visualization algorithm reconstructs, §IV-C).
        filtered_field
            .insert(ext, &reduced.samples())
            .expect("insert reconstruction");
    }

    // Render both meshes with the same camera.
    let (lo, hi) = coords.bounds();
    let cam = Camera::framing(
        apc_render::math::Vec3::from_array(lo),
        apc_render::math::Vec3::from_array(hi),
    );
    let sky = [12u8, 12, 24];
    let storm_white = [235u8, 235, 240];
    let mut fb = Framebuffer::new(IMG_W, IMG_H, sky);
    fb.draw_mesh(&orig_mesh, &cam, storm_white);
    let img_a = fb.into_image();
    let mut fb = Framebuffer::new(IMG_W, IMG_H, sky);
    fb.draw_mesh(&filt_mesh, &cam, storm_white);
    let img_b = fb.into_image();

    // (c)/(d) colormaps of a low-level slice.
    let cmap = Colormap::reflectivity();
    let k_plane = field.dims().nz / 8;
    let img_c = cmap.render_slice(&field, k_plane);
    let img_d = cmap.render_slice(&filtered_field, k_plane);

    let dir = out_dir();
    img_a
        .write_ppm(&dir.join("fig01a_original_iso.ppm"))
        .expect("write a");
    img_b
        .write_ppm(&dir.join("fig01b_filtered_iso.ppm"))
        .expect("write b");
    img_c
        .write_ppm(&dir.join("fig01c_original_cmap.ppm"))
        .expect("write c");
    img_d
        .write_ppm(&dir.join("fig01d_filtered_cmap.ppm"))
        .expect("write d");

    // The paper's headline for this figure: 50 s (original, 400 cores)
    // vs 1 s (filtered). Model the max-rank render time at 400 ranks.
    let model = RenderCostModel::default().deterministic();
    let ds400 = ReflectivityDataset::paper_scaled(400, scale.seed).expect("dataset@400");
    let mut t_orig_max: f64 = 0.0;
    let mut t_filt_max: f64 = 0.0;
    for rank in 0..400 {
        let mut orig = IsoStats::default();
        let mut filt = IsoStats::default();
        let mut nb = 0;
        for b in ds400.rank_blocks(it, rank) {
            let (_, s) = block_isosurface(&b, ds400.coords(), DBZ_ISOVALUE);
            orig.merge(s);
            let (_, s) = block_isosurface(&b.reduced(), ds400.coords(), DBZ_ISOVALUE);
            filt.merge(s);
            nb += 1;
        }
        t_orig_max = t_orig_max.max(model.render_time(orig, nb, 0));
        t_filt_max = t_filt_max.max(model.render_time(filt, nb, 0));
    }

    println!("\n== Fig 1 — original vs filtered data ==");
    println!(
        "original: {} triangles; filtered: {} triangles ({}x fewer)",
        orig_stats.triangles,
        filt_stats.triangles,
        orig_stats.triangles / filt_stats.triangles.max(1)
    );
    println!(
        "modeled render time @400 ranks: original {t_orig_max:.1} s vs filtered {t_filt_max:.1} s \
         (paper: 50 s vs 1 s)"
    );
    println!(
        "isosurface image difference (mean abs per channel): {:.2}",
        img_a.mean_abs_diff(&img_b)
    );
    println!(
        "colormap image difference (mean abs per channel): {:.2}",
        img_c.mean_abs_diff(&img_d)
    );
    println!("images: {}", dir.display());
}

//! Cross-crate integration: the substrates agree with each other where
//! their responsibilities overlap.

use insitu::cm1::{ReflectivityDataset, DBZ_ISOVALUE, DBZ_MAX, DBZ_MIN};
use insitu::compress::{FloatCodec, Fpz};
use insitu::grid::interp;
use insitu::metrics::{by_name, BlockScorer, CompressionScore};
use insitu::pipeline::WireBlock;
use insitu::render::{block_iso_stats, block_isosurface, Colormap, RenderCostModel};

#[test]
fn fpzip_metric_equals_codec_ratio() {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let block = &dataset.rank_blocks(300, 1)[5];
    let metric = CompressionScore::fpzip();
    let dims = block.dims();
    let score = metric.score(&block.samples(), dims);
    let ratio = Fpz.compressed_ratio(&block.samples(), (dims.nx, dims.ny, dims.nz));
    assert!((score - ratio).abs() < 1e-12);
}

#[test]
fn trilin_metric_predicts_reduction_error() {
    // A block scoring ~0 under TRILIN renders (almost) the same surface
    // after reduction — the metric's design property.
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let trilin = by_name("TRILIN").unwrap();
    let coords = dataset.coords();
    for rank in 0..4 {
        for block in dataset.rank_blocks(300, rank) {
            let score = trilin.score(&block.samples(), block.dims());
            if score < 1e-6 {
                let (full, _) = block_isosurface(&block, coords, DBZ_ISOVALUE);
                let (red, _) = block_isosurface(&block.reduced(), coords, DBZ_ISOVALUE);
                // A flat block is either entirely transparent before and
                // after, or keeps its (tiny) surface.
                assert!(
                    full.triangle_count() <= 12 || red.triangle_count() > 0,
                    "block {} lost its surface despite TRILIN score {score}",
                    block.id
                );
            }
        }
    }
}

#[test]
fn storm_blocks_score_higher_than_clear_air_under_every_metric() {
    let dataset = ReflectivityDataset::tiny(16, 42).unwrap();
    let it = dataset.sample_iterations(5)[2];
    // Find the block under the storm center and a far-corner block.
    let storm = dataset.storm();
    let c = storm.center(storm.tau(it));
    let gb = dataset.decomp().global_block_grid();
    let storm_id = dataset.decomp().block_id_at((
        ((c[0] * gb.nx as f32) as usize).min(gb.nx - 1),
        ((c[1] * gb.ny as f32) as usize).min(gb.ny - 1),
        0,
    ));
    // The far *bottom* corner: genuinely clear air. (Top-layer corners can
    // catch the anvil fringe spreading aloft — by design of the storm.)
    let corner_id = dataset.decomp().block_id_at((gb.nx - 1, 0, 0));
    let storm_block = dataset.block(it, storm_id);
    let corner_block = dataset.block(it, corner_id);
    for name in ["RANGE", "VAR", "ITL", "LEA", "FPZIP", "TRILIN", "ZFP", "LZ"] {
        let m = by_name(name).unwrap();
        let s_storm = m.score(&storm_block.samples(), storm_block.dims());
        let s_corner = m.score(&corner_block.samples(), corner_block.dims());
        assert!(
            s_storm > s_corner,
            "{name}: storm block {s_storm} should outscore clear air {s_corner}"
        );
    }
}

#[test]
fn reflectivity_fields_are_renderable_end_to_end() {
    let dataset = ReflectivityDataset::tiny(4, 7).unwrap();
    let field = dataset.field(400);
    let (lo, hi) = field.min_max().unwrap();
    assert!(lo >= DBZ_MIN && hi <= DBZ_MAX);
    // Colormap slice and isosurface both consume the same field.
    let img = Colormap::reflectivity().render_column_max(&field);
    assert_eq!(img.width(), field.dims().nx);
    let coords = dataset.coords();
    let (mesh, stats) = insitu::render::marching_tetrahedra(
        field.as_slice(),
        field.dims(),
        DBZ_ISOVALUE,
        |i, j, k| coords.position(i, j, k),
    );
    assert!(stats.triangles > 0);
    let (mlo, mhi) = mesh.bounds().unwrap();
    let (blo, bhi) = coords.bounds();
    assert!(mlo.x >= blo[0] && mhi.x <= bhi[0]);
    assert!(mlo.z >= blo[2] && mhi.z <= bhi[2]);
}

#[test]
fn block_transport_roundtrip_through_comm_layer() {
    use insitu::comm::{NetModel, Runtime, Tag};
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let blocks = dataset.rank_blocks(300, 2);
    let sent = blocks.clone();
    let out = Runtime::new(2, NetModel::blue_waters()).run(move |rank| {
        if rank.rank() == 0 {
            for b in &sent {
                rank.send(1, Tag(1), WireBlock(b.clone()));
            }
            Vec::new()
        } else {
            (0..sent.len())
                .map(|_| rank.recv::<WireBlock>(0, Tag(1)).0)
                .collect()
        }
    });
    assert_eq!(out[1], blocks);
}

#[test]
fn count_only_stats_match_the_mesh_builder_on_storm_blocks() {
    // What the render-cost step counts is what the drawing path meshes,
    // for every payload a block can carry.
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let coords = dataset.coords();
    let mut triangles = [0usize; 4];
    for rank in 0..4 {
        for block in dataset.rank_blocks(300, rank) {
            let variants = [
                block.clone(),
                block.reduced(),
                block.downsampled(3),
                block.downsampled(4),
            ];
            for (v, b) in variants.iter().enumerate() {
                let meshed = block_isosurface(b, coords, DBZ_ISOVALUE).1;
                assert_eq!(block_iso_stats(b, DBZ_ISOVALUE), meshed, "block {}", b.id);
                triangles[v] += meshed.triangles;
            }
        }
    }
    assert!(triangles.iter().all(|&t| t > 0), "{triangles:?}");
}

#[test]
fn corner_reconstruction_matches_renderer_interpolation() {
    // grid::interp and the reduced-block renderer must agree on corners.
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let block = dataset.rank_blocks(300, 1)[7].clone();
    let reduced = block.reduced();
    let corners = reduced.corners();
    let rec = interp::reconstruct_from_corners(&corners, block.dims());
    assert_eq!(&rec[..], &reduced.samples()[..]);
}

#[test]
fn cost_model_orders_reduced_below_full() {
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let coords = dataset.coords();
    let model = RenderCostModel::default().deterministic();
    let blocks = dataset.rank_blocks(300, 1);
    let mut full = insitu::render::IsoStats::default();
    let mut red = insitu::render::IsoStats::default();
    for b in &blocks {
        full.merge(block_isosurface(b, coords, DBZ_ISOVALUE).1);
        red.merge(block_isosurface(&b.reduced(), coords, DBZ_ISOVALUE).1);
    }
    let t_full = model.render_time(full, blocks.len(), 0);
    let t_red = model.render_time(red, blocks.len(), 0);
    assert!(t_red < t_full);
}

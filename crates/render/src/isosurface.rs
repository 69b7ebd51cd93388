//! Isosurface extraction via marching tetrahedra.
//!
//! The paper's visualization scenario "computes a mesh of the isosurface
//! using a marching cubes method, then renders this mesh" (§V-A). We use
//! the marching-*tetrahedra* member of that family: each grid cell is split
//! into 6 tetrahedra around its main diagonal, and each tetrahedron is
//! triangulated by a 16-case analysis with no external lookup tables. The
//! output is crack-free and, like marching cubes, its size is proportional
//! to the isosurface area crossing the cell — which is what makes per-rank
//! triangle counts an honest proxy for rendering load.

use apc_grid::{Block, Dims3, RectilinearCoords};
use apc_par::{par_map, ExecPolicy, RecommendedConcurrency};

use crate::math::Vec3;
use crate::mesh::TriangleMesh;

/// Work counters for the virtual render cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsoStats {
    /// Grid cells visited.
    pub cells: usize,
    /// Triangles emitted.
    pub triangles: usize,
}

impl IsoStats {
    pub fn merge(&mut self, o: IsoStats) {
        self.cells += o.cells;
        self.triangles += o.triangles;
    }
}

/// The 6-tetrahedron decomposition of a cell, all sharing the 0–7 diagonal.
/// Corner indices use bit0 = +x, bit1 = +y, bit2 = +z.
const TETS: [[usize; 4]; 6] = [
    [0, 7, 1, 3],
    [0, 7, 3, 2],
    [0, 7, 2, 6],
    [0, 7, 6, 4],
    [0, 7, 4, 5],
    [0, 7, 5, 1],
];

/// Triangles a tetrahedron emits, by how many of its vertices are inside.
const TET_TRIANGLES: [u8; 5] = [0, 1, 2, 1, 0];

/// Triangles a cell emits, by its inside mask (bit `c` set when corner `c`
/// is `> iso`) — the one classification of the [`TETS`] decomposition: the
/// counter sums it, the mesh builder skips cells it maps to zero and checks
/// its emitted count against it.
const CELL_TRIANGLES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut mask = 0;
    while mask < 256 {
        let mut t = 0;
        while t < TETS.len() {
            let mut inside = 0;
            let mut v = 0;
            while v < 4 {
                inside += (mask >> TETS[t][v]) & 1;
                v += 1;
            }
            table[mask] += TET_TRIANGLES[inside];
            t += 1;
        }
        mask += 1;
    }
    table
};

/// Intersection point on the edge `(a, b)` at the isovalue.
#[inline]
fn edge_point(pa: Vec3, va: f32, pb: Vec3, vb: f32, iso: f32) -> Vec3 {
    let denom = vb - va;
    let t = if denom.abs() < 1e-30 {
        0.5
    } else {
        ((iso - va) / denom).clamp(0.0, 1.0)
    };
    pa + (pb - pa) * t
}

/// Triangulate one tetrahedron; returns the number of triangles emitted.
fn tetra(mesh: &mut TriangleMesh, p: [Vec3; 4], v: [f32; 4], iso: f32) -> usize {
    let mut mask = 0usize;
    for (i, &val) in v.iter().enumerate() {
        if val > iso {
            mask |= 1 << i;
        }
    }
    // Normalize to ≤ 2 inside vertices by complementing (same surface,
    // opposite orientation — we shade two-sided).
    let (mask, flip) = if mask.count_ones() > 2 {
        (mask ^ 0xF, true)
    } else {
        (mask, false)
    };
    let ep = |a: usize, b: usize| edge_point(p[a], v[a], p[b], v[b], iso);
    let mut tri = |a: Vec3, b: Vec3, c: Vec3| {
        if flip {
            mesh.push_triangle(a, c, b);
        } else {
            mesh.push_triangle(a, b, c);
        }
    };
    match mask {
        0b0000 => 0,
        0b0001 => {
            tri(ep(0, 1), ep(0, 2), ep(0, 3));
            1
        }
        0b0010 => {
            tri(ep(1, 0), ep(1, 3), ep(1, 2));
            1
        }
        0b0100 => {
            tri(ep(2, 0), ep(2, 1), ep(2, 3));
            1
        }
        0b1000 => {
            tri(ep(3, 0), ep(3, 2), ep(3, 1));
            1
        }
        0b0011 => {
            // 0 and 1 inside: quad on edges 0-2, 0-3, 1-2, 1-3.
            let (a, b, c, d) = (ep(0, 2), ep(0, 3), ep(1, 3), ep(1, 2));
            tri(a, b, c);
            tri(a, c, d);
            2
        }
        0b0101 => {
            // 0 and 2 inside: quad on 0-1, 0-3, 2-1, 2-3.
            let (a, b, c, d) = (ep(0, 1), ep(0, 3), ep(2, 3), ep(2, 1));
            tri(a, b, c);
            tri(a, c, d);
            2
        }
        0b1001 => {
            // 0 and 3 inside: quad on 0-1, 0-2, 3-2, 3-1.
            let (a, b, c, d) = (ep(0, 1), ep(0, 2), ep(3, 2), ep(3, 1));
            tri(a, b, c);
            tri(a, c, d);
            2
        }
        0b0110 => {
            // 1 and 2 inside: quad on 1-0, 1-3, 2-3, 2-0.
            let (a, b, c, d) = (ep(1, 0), ep(1, 3), ep(2, 3), ep(2, 0));
            tri(a, b, c);
            tri(a, c, d);
            2
        }
        0b1010 => {
            // 1 and 3 inside: quad on 1-0, 1-2, 3-2, 3-0.
            let (a, b, c, d) = (ep(1, 0), ep(1, 2), ep(3, 2), ep(3, 0));
            tri(a, b, c);
            tri(a, c, d);
            2
        }
        0b1100 => {
            // 2 and 3 inside: quad on 2-0, 2-1, 3-1, 3-0.
            let (a, b, c, d) = (ep(2, 0), ep(2, 1), ep(3, 1), ep(3, 0));
            tri(a, b, c);
            tri(a, c, d);
            2
        }
        _ => unreachable!("masks with >2 bits were complemented"),
    }
}

/// Extract the isosurface of an x-fastest scalar array.
///
/// `position(i, j, k)` maps grid indices to physical coordinates, which is
/// how rectilinear (stretched) grids and block extents are honored.
pub fn marching_tetrahedra<F>(
    data: &[f32],
    dims: Dims3,
    iso: f32,
    position: F,
) -> (TriangleMesh, IsoStats)
where
    F: Fn(usize, usize, usize) -> [f32; 3],
{
    assert_eq!(data.len(), dims.len(), "data/dims mismatch");
    let mut mesh = TriangleMesh::new();
    let mut stats = IsoStats::default();
    if dims.nx < 2 || dims.ny < 2 || dims.nz < 2 {
        return (mesh, stats);
    }
    for k in 0..dims.nz - 1 {
        for j in 0..dims.ny - 1 {
            for i in 0..dims.nx - 1 {
                stats.cells += 1;
                // Gather the cell's 8 corners (bit0=+x, bit1=+y, bit2=+z).
                let mut vals = [0.0f32; 8];
                let mut mask = 0usize;
                for (c, val) in vals.iter_mut().enumerate() {
                    let v = data[dims.idx(i + (c & 1), j + ((c >> 1) & 1), k + (c >> 2))];
                    *val = v;
                    mask |= usize::from(v > iso) << c;
                }
                let expected = usize::from(CELL_TRIANGLES[mask]);
                if expected == 0 {
                    continue; // cell doesn't cross the isovalue
                }
                let mut pos = [Vec3::default(); 8];
                for (c, pc) in pos.iter_mut().enumerate() {
                    *pc = Vec3::from_array(position(i + (c & 1), j + ((c >> 1) & 1), k + (c >> 2)));
                }
                let mut emitted = 0;
                for tet in &TETS {
                    let p = [pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]]];
                    let v = [vals[tet[0]], vals[tet[1]], vals[tet[2]], vals[tet[3]]];
                    emitted += tetra(&mut mesh, p, v, iso);
                }
                debug_assert_eq!(emitted, expected, "cell mask {mask:#010b}");
                stats.triangles += emitted;
            }
        }
    }
    (mesh, stats)
}

/// The [`IsoStats`] that [`marching_tetrahedra`] reports for the same array,
/// counted without building the mesh: no positions, no interpolation, no
/// allocation. This is what the render-cost step runs — only the counters
/// feed the virtual clock.
pub fn iso_stats(data: &[f32], dims: Dims3, iso: f32) -> IsoStats {
    assert_eq!(data.len(), dims.len(), "data/dims mismatch");
    if dims.nx < 2 || dims.ny < 2 || dims.nz < 2 {
        return IsoStats::default();
    }
    let cells = (dims.nx - 1) * (dims.ny - 1) * (dims.nz - 1);
    // Clear air is the majority of a storm domain: with no sample (or
    // every sample) inside, no cell crosses the isovalue. The count runs in
    // `u32` over chunks short enough that it cannot overflow, which the
    // compiler turns into packed compares; each chunk's count is then
    // widened and summed.
    let inside: usize = data
        .chunks(1 << 16)
        .map(|chunk| chunk.iter().map(|&v| u32::from(v > iso)).sum::<u32>() as usize)
        .sum();
    if inside == 0 || inside == data.len() {
        return IsoStats {
            cells,
            triangles: 0,
        };
    }
    let row = |j: usize, k: usize| &data[dims.idx(0, j, k)..][..dims.nx];
    let mut triangles = 0usize;
    for k in 0..dims.nz - 1 {
        for j in 0..dims.ny - 1 {
            // The four x-rows bounding this row of cells, in corner order
            // (bit1 = +y, bit2 = +z). Column `i` holds its four samples at
            // bits 0, 2, 4, 6: the -x corners of the cell to its right and,
            // shifted up by one, the +x corners of the cell to its left.
            let rows = [row(j, k), row(j + 1, k), row(j, k + 1), row(j + 1, k + 1)];
            let column = |i: usize| {
                usize::from(rows[0][i] > iso)
                    | usize::from(rows[1][i] > iso) << 2
                    | usize::from(rows[2][i] > iso) << 4
                    | usize::from(rows[3][i] > iso) << 6
            };
            let mut left = column(0);
            for i in 1..dims.nx {
                let right = column(i);
                triangles += usize::from(CELL_TRIANGLES[left | right << 1]);
                left = right;
            }
        }
    }
    IsoStats { cells, triangles }
}

/// [`iso_stats`] of one (possibly reduced) block: exactly the counters
/// [`block_isosurface`] reports, which marches the lattice the block
/// carries — all samples, the 2×2×2 corners, or the k×k×k samples.
pub fn block_iso_stats(block: &Block, iso: f32) -> IsoStats {
    match &block.data {
        apc_grid::BlockData::Full(samples) => iso_stats(samples, block.dims(), iso),
        apc_grid::BlockData::Reduced(corners) => iso_stats(corners, Dims3::new(2, 2, 2), iso),
        apc_grid::BlockData::Sampled { dims, values } => iso_stats(values, *dims, iso),
    }
}

/// Isosurface of one (possibly reduced) block, positioned in the domain's
/// physical coordinates. Reduced blocks are reconstructed to their logical
/// shape first — the renderer "rebuilds more points if necessary using
/// interpolation", paper §IV-C.
pub fn block_isosurface(
    block: &Block,
    coords: &RectilinearCoords,
    iso: f32,
) -> (TriangleMesh, IsoStats) {
    let dims = block.dims();
    let lo = block.extent.lo;
    match &block.data {
        apc_grid::BlockData::Reduced(corners) => {
            // A reduced block is rendered from its 2×2×2 corner samples —
            // one cell spanning the block's physical extent. (Rebuilding
            // all points first would yield the same surface at 6·n³ the
            // cost; the corner cell is what Catalyst sees after reduction.)
            let corner_dims = Dims3::new(2, 2, 2);
            let hi = (
                block.extent.hi.0 - 1,
                block.extent.hi.1 - 1,
                block.extent.hi.2 - 1,
            );
            marching_tetrahedra(corners, corner_dims, iso, |i, j, k| {
                coords.position(
                    if i == 0 { lo.0 } else { hi.0 },
                    if j == 0 { lo.1 } else { hi.1 },
                    if k == 0 { lo.2 } else { hi.2 },
                )
            })
        }
        apc_grid::BlockData::Sampled { dims: cd, values } => {
            // k×k×k downsampling: march the coarse lattice at the kept
            // sample positions (first/last on the boundary for continuity).
            let ix = apc_grid::interp::sample_indices(dims.nx, cd.nx);
            let iy = apc_grid::interp::sample_indices(dims.ny, cd.ny);
            let iz = apc_grid::interp::sample_indices(dims.nz, cd.nz);
            marching_tetrahedra(values, *cd, iso, |i, j, k| {
                coords.position(lo.0 + ix[i], lo.1 + iy[j], lo.2 + iz[k])
            })
        }
        apc_grid::BlockData::Full(samples) => marching_tetrahedra(samples, dims, iso, |i, j, k| {
            coords.position(lo.0 + i, lo.1 + j, lo.2 + k)
        }),
    }
}

/// How much parallelism isosurface extraction can use: triangle density is
/// wildly uneven across blocks (storm core vs clear air), so prefer plenty
/// of workers and let the dynamic chunking in [`apc_par::par_map`] balance
/// them — but never more than one worker per two blocks.
pub fn recommended_concurrency(nblocks: usize) -> RecommendedConcurrency {
    RecommendedConcurrency::per_items(nblocks, 2)
}

/// Isosurface work counters for a whole block set under an [`ExecPolicy`],
/// in block order — [`block_iso_stats`] per block, so nothing is meshed and
/// the counters are bit-identical under every policy. `coords` is unused
/// (counting needs no positions); it stays in the signature for callers
/// that hold a block set and its grid together.
pub fn batch_isosurface_stats(
    blocks: &[Block],
    _coords: &RectilinearCoords,
    iso: f32,
    policy: ExecPolicy,
) -> Vec<IsoStats> {
    let policy = policy.for_kernel(recommended_concurrency(blocks.len()));
    par_map(policy, blocks, |b| block_iso_stats(b, iso))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_grid::{BlockData, Extent3, Field3};

    /// An `n`³ grid of spacing `d` with no stretched border cells.
    fn uniform(n: usize, d: f32) -> RectilinearCoords {
        RectilinearCoords::stretched(Dims3::new(n, n, n), d, 0, 1.0)
    }

    fn sphere_field(dims: Dims3, r: f32) -> Vec<f32> {
        let c = [
            (dims.nx - 1) as f32 / 2.0,
            (dims.ny - 1) as f32 / 2.0,
            (dims.nz - 1) as f32 / 2.0,
        ];
        let mut data = Vec::with_capacity(dims.len());
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    let d = ((i as f32 - c[0]).powi(2)
                        + (j as f32 - c[1]).powi(2)
                        + (k as f32 - c[2]).powi(2))
                    .sqrt();
                    data.push(r - d); // positive inside the sphere
                }
            }
        }
        data
    }

    fn ident(i: usize, j: usize, k: usize) -> [f32; 3] {
        [i as f32, j as f32, k as f32]
    }

    #[test]
    fn empty_when_no_crossing() {
        let dims = Dims3::new(4, 4, 4);
        let (mesh, stats) = marching_tetrahedra(&vec![1.0; 64], dims, 0.0, ident);
        assert!(mesh.is_empty());
        assert_eq!(stats.cells, 27);
        assert_eq!(stats.triangles, 0);
        let (mesh, _) = marching_tetrahedra(&vec![-1.0; 64], dims, 0.0, ident);
        assert!(mesh.is_empty());
    }

    #[test]
    fn sphere_area_approximates_analytic() {
        let dims = Dims3::new(24, 24, 24);
        let r = 8.0;
        let (mesh, stats) = marching_tetrahedra(&sphere_field(dims, r), dims, 0.0, ident);
        assert!(stats.triangles > 100);
        assert_eq!(mesh.triangle_count(), stats.triangles);
        let analytic = 4.0 * std::f64::consts::PI * (r as f64) * (r as f64);
        let measured = mesh.area();
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.15,
            "sphere area off by {:.1}%: {measured} vs {analytic}",
            rel * 100.0
        );
    }

    #[test]
    fn plane_isosurface_sits_at_crossing() {
        // Field linear in x crosses iso=2.5 at the x=2.5 plane.
        let dims = Dims3::new(6, 5, 4);
        let data: Vec<f32> = (0..dims.len()).map(|idx| (idx % 6) as f32).collect();
        let (mesh, _) = marching_tetrahedra(&data, dims, 2.5, ident);
        assert!(!mesh.is_empty());
        for p in &mesh.positions {
            assert!((p.x - 2.5).abs() < 1e-5, "vertex off the plane: {p:?}");
        }
        // Plane area = (ny-1) × (nz-1) = 4 × 3 = 12.
        assert!((mesh.area() - 12.0).abs() < 0.2, "area = {}", mesh.area());
    }

    #[test]
    fn vertices_stay_inside_cell_bounds() {
        let dims = Dims3::new(10, 10, 10);
        let (mesh, _) = marching_tetrahedra(&sphere_field(dims, 3.5), dims, 0.0, ident);
        let (lo, hi) = mesh.bounds().unwrap();
        assert!(lo.x >= 0.0 && lo.y >= 0.0 && lo.z >= 0.0);
        assert!(hi.x <= 9.0 && hi.y <= 9.0 && hi.z <= 9.0);
    }

    #[test]
    fn position_mapping_is_honored() {
        let dims = Dims3::new(4, 4, 4);
        let scale = 3.0f32;
        let (mesh, _) = marching_tetrahedra(&sphere_field(dims, 1.4), dims, 0.0, |i, j, k| {
            [i as f32 * scale, j as f32 * scale, k as f32 * scale]
        });
        let (ref_mesh, _) = marching_tetrahedra(&sphere_field(dims, 1.4), dims, 0.0, ident);
        assert!((mesh.area() - ref_mesh.area() * (scale * scale) as f64).abs() < 1e-3);
    }

    #[test]
    fn degenerate_dims_yield_nothing() {
        let (mesh, stats) = marching_tetrahedra(&[1.0, -1.0], Dims3::new(2, 1, 1), 0.0, ident);
        assert!(mesh.is_empty());
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn reduced_block_renders_single_cell() {
        let coords = uniform(20, 1.0);
        let dims = Dims3::new(10, 10, 10);
        let field = Field3::from_vec(dims, sphere_field(dims, 4.0)).unwrap();
        let full_block = Block::from_field(0, Extent3::new((0, 0, 0), (10, 10, 10)), &field)
            .map(|mut b| {
                // give the extent an offset inside the domain
                b.extent = Extent3::new((5, 5, 5), (15, 15, 15));
                b
            })
            .unwrap();
        let (full_mesh, full_stats) = block_isosurface(&full_block, &coords, 0.0);
        assert!(full_stats.triangles > 0);
        assert_eq!(full_stats.cells, 729);

        let reduced = full_block.reduced();
        let (_red_mesh, red_stats) = block_isosurface(&reduced, &coords, 0.0);
        assert_eq!(red_stats.cells, 1, "a reduced block is one cell");
        assert!(red_stats.triangles <= 12);
        // Cost collapses: this is the entire point of reduction.
        assert!(red_stats.cells < full_stats.cells / 100);
        drop(full_mesh);
    }

    #[test]
    fn reduced_block_geometry_spans_extent() {
        // A reduced block whose corners straddle the isovalue must produce
        // geometry inside its physical extent.
        let coords = uniform(20, 2.0);
        let block = Block {
            id: 0,
            extent: Extent3::new((2, 2, 2), (8, 8, 8)),
            data: BlockData::Reduced([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]),
        };
        let (mesh, stats) = block_isosurface(&block, &coords, 0.0);
        assert!(stats.triangles > 0);
        let (lo, hi) = mesh.bounds().unwrap();
        // Physical extent is [4, 14] on each axis.
        assert!(lo.x >= 4.0 - 1e-4 && hi.x <= 14.0 + 1e-4, "{lo:?} {hi:?}");
    }

    #[test]
    fn cell_table_counts_what_the_tetrahedra_emit() {
        for (mask, &expected) in CELL_TRIANGLES.iter().enumerate() {
            // One cell with exactly `mask` inside: the builder's own
            // debug_assert ties its emitted count to the table as well.
            let data: Vec<f32> = (0..8)
                .map(|c| if mask >> c & 1 == 1 { 1.0 } else { -1.0 })
                .collect();
            let (mesh, stats) = marching_tetrahedra(&data, Dims3::new(2, 2, 2), 0.0, ident);
            assert_eq!(stats.triangles, usize::from(expected), "{mask}");
            assert_eq!(mesh.triangle_count(), stats.triangles);
            let mixed = mask != 0 && mask != 255;
            assert_eq!(
                stats.triangles >= 2,
                mixed,
                "a cell crosses iff it is mixed"
            );
        }
    }

    #[test]
    fn count_only_stats_equal_the_mesh_builders() {
        use apc_par::SplitMix64;
        let mut rng = SplitMix64::new(0x150_57A7);
        let shapes = [(2, 2, 2), (11, 11, 19), (5, 3, 7), (1, 6, 4), (4, 1, 3)];
        for (case, &(nx, ny, nz)) in shapes.iter().cycle().take(40).enumerate() {
            let dims = Dims3::new(nx, ny, nz);
            let iso = 45.0f32;
            // Smooth-ish fields around the isovalue, then the awkward
            // samples: NaNs (never inside) and exact ties (not inside).
            let spread = [0.5f32, 5.0, 60.0][case % 3];
            let mut data: Vec<f32> = (0..dims.len())
                .map(|_| iso + rng.range_f32(-spread, spread))
                .collect();
            for v in &mut data {
                match rng.below(16) {
                    0 => *v = f32::NAN,
                    1 => *v = iso,
                    _ => {}
                }
            }
            let (mesh, meshed) = marching_tetrahedra(&data, dims, iso, ident);
            assert_eq!(iso_stats(&data, dims, iso), meshed, "{dims:?} case {case}");
            assert_eq!(mesh.triangle_count(), meshed.triangles);
        }
        // The early-outs: nothing inside, everything inside, all NaN.
        let dims = Dims3::new(5, 3, 7);
        for fill in [0.0f32, 90.0, f32::NAN] {
            let data = vec![fill; dims.len()];
            let meshed = marching_tetrahedra(&data, dims, 45.0, ident).1;
            assert_eq!(iso_stats(&data, dims, 45.0), meshed);
            assert_eq!(meshed.triangles, 0);
            assert_eq!(meshed.cells, 4 * 2 * 6);
        }
    }

    #[test]
    fn batch_stats_match_serial_loop_under_any_policy() {
        let dims = Dims3::new(8, 8, 8);
        let coords = uniform(64, 1.0);
        let blocks: Vec<Block> = (0..12)
            .map(|i| {
                let r = 1.5 + 0.3 * i as f32; // varying triangle density
                let field = Field3::from_vec(dims, sphere_field(dims, r)).unwrap();
                let mut b = Block::from_field(
                    i as apc_grid::BlockId,
                    Extent3::new((0, 0, 0), (8, 8, 8)),
                    &field,
                )
                .unwrap();
                let o = (i % 4) * 8;
                b.extent = Extent3::new((o, 0, 0), (o + 8, 8, 8));
                b
            })
            .collect();
        let serial = batch_isosurface_stats(&blocks, &coords, 0.0, ExecPolicy::Serial);
        let reference: Vec<IsoStats> = blocks
            .iter()
            .map(|b| block_isosurface(b, &coords, 0.0).1)
            .collect();
        assert_eq!(serial, reference, "serial batch must equal the plain loop");
        for threads in [2, 8] {
            let par = batch_isosurface_stats(&blocks, &coords, 0.0, ExecPolicy::Threads(threads));
            assert_eq!(
                serial, par,
                "Threads({threads}) counters must be bit-identical"
            );
        }
        assert!(serial.iter().any(|s| s.triangles > 0));
    }
}

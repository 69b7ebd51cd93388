//! Software visualization substrate: the stand-in for ParaView Catalyst.
//!
//! The paper renders a 45 dBZ reflectivity isosurface through Catalyst
//! (marching cubes + rasterization) and 2D colormaps. This crate implements
//! that pipeline from scratch:
//!
//! * [`isosurface`] — crack-free isosurface extraction via **marching
//!   tetrahedra** (6-tet cell decomposition; same complexity class and
//!   output characteristics as marching cubes, no external case tables);
//! * [`raster`] — a z-buffer triangle rasterizer with Lambert shading;
//! * [`camera`] + [`math`] — look-at cameras, orthographic & perspective;
//! * [`colormap`] — greyscale / viridis-like / NWS-radar palettes and 2D
//!   slice colormap rendering (paper Fig 1c/1d);
//! * [`scoremap`] — the per-block score images of paper Fig 4;
//! * [`image`] — PPM/PGM output;
//! * [`cost`] — the calibrated virtual render-time model: real counted
//!   cells/triangles in, Blue Waters-scale seconds out, with seeded
//!   log-normal jitter reproducing the paper's render-time variability.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod camera;
pub mod colormap;
pub mod cost;
pub mod image;
pub mod isosurface;
pub mod math;
pub mod mesh;
pub mod raster;
pub mod scoremap;

pub use camera::Camera;
pub use colormap::{Colormap, Palette};
pub use cost::RenderCostModel;
pub use image::Image;
pub use isosurface::{
    batch_isosurface_stats, block_iso_stats, block_isosurface, marching_tetrahedra, IsoStats,
};
pub use mesh::TriangleMesh;
pub use raster::Framebuffer;
pub use scoremap::render_scoremap;

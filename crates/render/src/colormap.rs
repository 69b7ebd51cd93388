//! Color lookup tables and 2D slice colormap rendering (paper Fig 1c/1d).

use apc_grid::Field3;

use crate::image::Image;

/// A scalar → RGB color map over a fixed value range.
#[derive(Debug, Clone, Copy)]
pub struct Colormap {
    pub min: f32,
    pub max: f32,
    pub palette: Palette,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Palette {
    /// Black → white.
    Greyscale,
    /// White → black (scoremaps: "darker regions indicate higher scores").
    GreyscaleInverted,
    /// A compact viridis-like perceptual ramp.
    Viridis,
    /// The classic NWS radar reflectivity palette (what storm colormaps
    /// like paper Fig 1c use).
    Radar,
}

impl Colormap {
    pub fn new(min: f32, max: f32, palette: Palette) -> Self {
        assert!(max > min, "colormap range must be non-empty");
        Self { min, max, palette }
    }

    /// The paper's reflectivity colormap over [−60, 80] dBZ.
    pub fn reflectivity() -> Self {
        Self::new(-60.0, 80.0, Palette::Radar)
    }

    #[inline]
    fn t(&self, v: f32) -> f32 {
        ((v - self.min) / (self.max - self.min)).clamp(0.0, 1.0)
    }

    /// Map a value to RGB.
    pub fn rgb(&self, v: f32) -> [u8; 3] {
        let t = self.t(v);
        match self.palette {
            Palette::Greyscale => {
                let g = (t * 255.0) as u8;
                [g, g, g]
            }
            Palette::GreyscaleInverted => {
                let g = ((1.0 - t) * 255.0) as u8;
                [g, g, g]
            }
            Palette::Viridis => viridis(t),
            Palette::Radar => radar(t),
        }
    }

    /// Render a z-slice of a field as an image (one pixel per sample,
    /// y flipped so north is up).
    pub fn render_slice(&self, field: &Field3, k_plane: usize) -> Image {
        let d = field.dims();
        #[expect(
            clippy::expect_used,
            reason = "an out-of-range plane is a caller indexing bug, same contract as slice indexing"
        )]
        let slice = field.slice_z(k_plane).expect("k_plane in range");
        let mut img = Image::new(d.nx, d.ny);
        for j in 0..d.ny {
            for i in 0..d.nx {
                img.set(i, d.ny - 1 - j, self.rgb(slice[j * d.nx + i]));
            }
        }
        img
    }

    /// Render the column-maximum projection of a field (composite
    /// reflectivity — the standard storm plan view).
    pub fn render_column_max(&self, field: &Field3) -> Image {
        let d = field.dims();
        let mut img = Image::new(d.nx, d.ny);
        for j in 0..d.ny {
            for i in 0..d.nx {
                let mut m = f32::MIN;
                for k in 0..d.nz {
                    m = m.max(field.get(i, j, k));
                }
                img.set(i, d.ny - 1 - j, self.rgb(m));
            }
        }
        img
    }
}

/// Piecewise-linear viridis approximation.
fn viridis(t: f32) -> [u8; 3] {
    const STOPS: [[f32; 3]; 5] = [
        [0.267, 0.005, 0.329],
        [0.229, 0.322, 0.545],
        [0.128, 0.567, 0.551],
        [0.369, 0.789, 0.383],
        [0.993, 0.906, 0.144],
    ];
    lerp_stops(&STOPS, t)
}

/// NWS-style reflectivity palette: transparent-grey clear air, then green /
/// yellow / orange / red / magenta with increasing dBZ.
fn radar(t: f32) -> [u8; 3] {
    const STOPS: [[f32; 3]; 8] = [
        [0.05, 0.05, 0.10], // clear air (near −60 dBZ)
        [0.25, 0.25, 0.35],
        [0.00, 0.55, 0.85], // light echo (blue)
        [0.05, 0.80, 0.10], // green
        [0.95, 0.90, 0.10], // yellow
        [0.95, 0.55, 0.05], // orange
        [0.85, 0.05, 0.05], // red
        [0.85, 0.10, 0.85], // magenta (extreme hail core)
    ];
    lerp_stops(&STOPS, t)
}

fn lerp_stops<const N: usize>(stops: &[[f32; 3]; N], t: f32) -> [u8; 3] {
    let x = t.clamp(0.0, 1.0) * (N - 1) as f32;
    let i = (x.floor() as usize).min(N - 2);
    let f = x - i as f32;
    let mut rgb = [0u8; 3];
    for c in 0..3 {
        let v = stops[i][c] + (stops[i + 1][c] - stops[i][c]) * f;
        rgb[c] = (v * 255.0).round().clamp(0.0, 255.0) as u8;
    }
    rgb
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_grid::Dims3;

    #[test]
    fn endpoints_clamp() {
        let cm = Colormap::new(0.0, 10.0, Palette::Greyscale);
        assert_eq!(cm.rgb(-5.0), [0, 0, 0]);
        assert_eq!(cm.rgb(50.0), [255, 255, 255]);
        assert_eq!(cm.rgb(5.0), [127, 127, 127]);
    }

    #[test]
    fn inverted_greyscale_darkens_high_scores() {
        let cm = Colormap::new(0.0, 1.0, Palette::GreyscaleInverted);
        assert!(cm.rgb(1.0)[0] < cm.rgb(0.0)[0]);
    }

    #[test]
    fn radar_palette_orders_hue_energy() {
        let cm = Colormap::reflectivity();
        let clear = cm.rgb(-55.0);
        let storm = cm.rgb(55.0);
        // Storm pixels are much brighter in red than clear air.
        assert!(storm[0] > clear[0] + 100);
    }

    #[test]
    fn slice_render_shape_and_orientation() {
        let d = Dims3::new(3, 2, 2);
        let mut f = Field3::zeros(d);
        f.set(0, 0, 1, 10.0); // south-west corner of plane k=1
        let cm = Colormap::new(0.0, 10.0, Palette::Greyscale);
        let img = cm.render_slice(&f, 1);
        assert_eq!((img.width(), img.height()), (3, 2));
        // y is flipped: j=0 lands at the bottom row (y = height-1).
        assert_eq!(img.get(0, 1), [255, 255, 255]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn column_max_projects_peaks() {
        let d = Dims3::new(2, 2, 3);
        let mut f = Field3::filled(d, -60.0);
        f.set(1, 1, 2, 60.0);
        let cm = Colormap::reflectivity();
        let img = cm.render_column_max(&f);
        // Pixel (1, flipped j=1 → y=0) must be hot.
        let hot = img.get(1, 0);
        let cold = img.get(0, 1);
        assert_ne!(hot, cold);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = Colormap::new(5.0, 5.0, Palette::Greyscale);
    }
}

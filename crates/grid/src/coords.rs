//! Physical coordinates of a rectilinear grid.
//!
//! CM1 runs on a *rectilinear* grid: axis spacing is uniform in the interior
//! and stretched towards the domain border so the storm has room to evolve
//! without interacting with the boundary (paper §II-A; the "longer blocks on
//! the borders of the domain" in Fig. 4 come from this stretching).

use crate::Dims3;

/// Per-axis monotonically increasing physical coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct RectilinearCoords {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
}

impl RectilinearCoords {
    /// CM1-style stretched axes: uniform interior spacing `d_inner`, with the
    /// outermost `stretch_n` cells on each horizontal side geometrically
    /// stretched by `ratio` per cell. The vertical axis stays uniform.
    pub fn stretched(dims: Dims3, d_inner: f32, stretch_n: usize, ratio: f32) -> Self {
        let stretched_axis = |n: usize| -> Vec<f32> {
            let sn = stretch_n.min(n / 2);
            // Spacing for each of the n-1 cells along the axis.
            let mut spacing = vec![d_inner; n.saturating_sub(1)];
            for s in 0..sn {
                // s = 0 is the outermost cell.
                let factor = ratio.powi((sn - s) as i32);
                if s < spacing.len() {
                    spacing[s] = d_inner * factor;
                }
                let from_end = spacing.len().saturating_sub(1 + s);
                if from_end < spacing.len() {
                    spacing[from_end] = d_inner * factor;
                }
            }
            let mut coords = Vec::with_capacity(n);
            let mut acc = 0.0;
            coords.push(0.0);
            for sp in spacing {
                acc += sp;
                coords.push(acc);
            }
            coords.truncate(n);
            coords
        };
        Self {
            x: stretched_axis(dims.nx),
            y: stretched_axis(dims.ny),
            z: (0..dims.nz).map(|i| i as f32 * d_inner).collect(),
        }
    }

    pub fn dims(&self) -> Dims3 {
        Dims3::new(self.x.len(), self.y.len(), self.z.len())
    }

    /// Physical position of grid point `(i, j, k)`.
    #[inline]
    pub fn position(&self, i: usize, j: usize, k: usize) -> [f32; 3] {
        [self.x[i], self.y[j], self.z[k]]
    }

    /// Physical bounding box `(min, max)` of the whole grid.
    #[expect(
        clippy::unwrap_used,
        reason = "grids span a DomainDecomp's domain, never zero-sized"
    )]
    pub fn bounds(&self) -> ([f32; 3], [f32; 3]) {
        (
            [self.x[0], self.y[0], self.z[0]],
            [
                *self.x.last().unwrap(),
                *self.y.last().unwrap(),
                *self.z.last().unwrap(),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_stretched_cells_is_uniform() {
        let c = RectilinearCoords::stretched(Dims3::new(4, 3, 2), 0.5, 0, 1.2);
        assert_eq!(c.x, vec![0.0, 0.5, 1.0, 1.5]);
        assert_eq!(c.dims(), Dims3::new(4, 3, 2));
        assert_eq!(c.position(1, 2, 1), [0.5, 1.0, 0.5]);
    }

    #[test]
    fn stretched_axes_are_monotone_and_wider_at_border() {
        let c = RectilinearCoords::stretched(Dims3::new(20, 20, 5), 1.0, 4, 1.2);
        for axis in [&c.x, &c.y] {
            assert!(axis.windows(2).all(|w| w[1] > w[0]));
            let first_cell = axis[1] - axis[0];
            let mid_cell = axis[10] - axis[9];
            let last_cell = axis[19] - axis[18];
            assert!(first_cell > mid_cell, "border cell should be stretched");
            assert!(last_cell > mid_cell, "border cell should be stretched");
            assert!((mid_cell - 1.0).abs() < 1e-6);
        }
        // z stays uniform.
        assert!(c.z.windows(2).all(|w| (w[1] - w[0] - 1.0).abs() < 1e-6));
    }

    #[test]
    fn bounds() {
        let c = RectilinearCoords::stretched(Dims3::new(3, 3, 3), 2.0, 0, 1.0);
        assert_eq!(c.bounds(), ([0.0, 0.0, 0.0], [4.0, 4.0, 4.0]));
    }
}

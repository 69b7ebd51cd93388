//! Dense 3D scalar fields.

use std::sync::Arc;

use crate::{Dims3, Extent3, GridError};

/// A dense 3D array of `f32` samples in x-fastest layout.
///
/// This is the in-memory representation of one variable (e.g. reflectivity)
/// over a domain or subdomain at one simulation iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    dims: Dims3,
    data: Vec<f32>,
}

impl Field3 {
    /// A field filled with `fill`.
    pub fn filled(dims: Dims3, fill: f32) -> Self {
        Self {
            dims,
            data: vec![fill; dims.len()],
        }
    }

    /// A zero field.
    pub fn zeros(dims: Dims3) -> Self {
        Self::filled(dims, 0.0)
    }

    /// Wrap an existing buffer; its length must match `dims`.
    pub fn from_vec(dims: Dims3, data: Vec<f32>) -> Result<Self, GridError> {
        if data.len() != dims.len() {
            return Err(GridError::LengthMismatch {
                expected: dims.len(),
                got: data.len(),
            });
        }
        Ok(Self { dims, data })
    }

    /// Build a field by evaluating `f(i, j, k)` at every point.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    data.push(f(i, j, k));
                }
            }
        }
        Self { dims, data }
    }

    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        self.data[self.dims.idx(i, j, k)]
    }

    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f32) {
        let idx = self.dims.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Minimum and maximum sample values (ignoring NaN); `None` if empty.
    // apc-lint: allow(dead-pub): field_pin.rs and substrate_interplay check generated dBZ ranges with it
    pub fn min_max(&self) -> Option<(f32, f32)> {
        let mut it = self.data.iter().copied().filter(|v| !v.is_nan());
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Copy the samples inside `extent` into a new contiguous buffer
    /// (x-fastest layout of the extent's own dims).
    pub fn extract(&self, extent: Extent3) -> Result<Vec<f32>, GridError> {
        if !extent.fits_in(self.dims) {
            return Err(GridError::OutOfBounds);
        }
        let mut out = Vec::with_capacity(extent.dims().len());
        for row in self.rows(extent) {
            out.extend_from_slice(row);
        }
        Ok(out)
    }

    /// [`Field3::extract`] as a shared block payload: the `Arc` is allocated
    /// once at its final size and the rows are copied straight into it — no
    /// `Vec` in between for `Arc::from` to copy a second time.
    pub(crate) fn extract_shared(&self, extent: Extent3) -> Result<Arc<[f32]>, GridError> {
        if !extent.fits_in(self.dims) {
            return Err(GridError::OutOfBounds);
        }
        let ed = extent.dims();
        let mut out: Arc<[f32]> = std::iter::repeat_n(0.0, ed.len()).collect();
        // apc-lint: allow(unwrap-in-lib): the Arc was created on the line above and has not been cloned
        let samples = Arc::get_mut(&mut out).expect("a new Arc has one owner");
        for (dst, src) in samples
            .chunks_exact_mut(ed.nx.max(1))
            .zip(self.rows(extent))
        {
            dst.copy_from_slice(src);
        }
        Ok(out)
    }

    /// The rows of `extent` (which fits), in layout order.
    fn rows(&self, extent: Extent3) -> impl Iterator<Item = &[f32]> {
        let nx = extent.dims().nx;
        (extent.lo.2..extent.hi.2).flat_map(move |k| {
            (extent.lo.1..extent.hi.1).map(move |j| {
                let row = self.dims.idx(extent.lo.0, j, k);
                &self.data[row..row + nx]
            })
        })
    }

    /// Write a contiguous buffer (shaped like `extent.dims()`) back into the
    /// field at `extent`. Inverse of [`Field3::extract`].
    pub fn insert(&mut self, extent: Extent3, values: &[f32]) -> Result<(), GridError> {
        if !extent.fits_in(self.dims) {
            return Err(GridError::OutOfBounds);
        }
        let ed = extent.dims();
        if values.len() != ed.len() {
            return Err(GridError::LengthMismatch {
                expected: ed.len(),
                got: values.len(),
            });
        }
        let mut src = 0;
        for k in extent.lo.2..extent.hi.2 {
            for j in extent.lo.1..extent.hi.1 {
                let row = self.dims.idx(extent.lo.0, j, k);
                self.data[row..row + ed.nx].copy_from_slice(&values[src..src + ed.nx]);
                src += ed.nx;
            }
        }
        Ok(())
    }

    /// Extract the 2D slice `k = k_plane` as a row-major (`ny` rows of `nx`)
    /// buffer. Used by colormap rendering and scoremaps.
    pub fn slice_z(&self, k_plane: usize) -> Result<Vec<f32>, GridError> {
        if k_plane >= self.dims.nz {
            return Err(GridError::OutOfBounds);
        }
        let ext = Extent3::new((0, 0, k_plane), (self.dims.nx, self.dims.ny, k_plane + 1));
        self.extract(ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(dims: Dims3) -> Field3 {
        Field3::from_fn(dims, |i, j, k| (i + 10 * j + 100 * k) as f32)
    }

    #[test]
    fn from_vec_checks_length() {
        let d = Dims3::new(2, 2, 2);
        assert!(Field3::from_vec(d, vec![0.0; 8]).is_ok());
        assert_eq!(
            Field3::from_vec(d, vec![0.0; 7]),
            Err(GridError::LengthMismatch {
                expected: 8,
                got: 7
            })
        );
    }

    #[test]
    fn get_set() {
        let mut f = Field3::zeros(Dims3::new(3, 3, 3));
        f.set(1, 2, 0, 5.0);
        assert_eq!(f.get(1, 2, 0), 5.0);
        assert_eq!(f.get(0, 0, 0), 0.0);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let d = Dims3::new(6, 5, 4);
        let f = ramp(d);
        let ext = Extent3::new((1, 1, 1), (4, 4, 3));
        let sub = f.extract(ext).unwrap();
        assert_eq!(sub.len(), ext.len());
        // Spot-check layout: first element is (1,1,1).
        assert_eq!(sub[0], f.get(1, 1, 1));
        assert_eq!(sub[1], f.get(2, 1, 1));

        let mut g = Field3::zeros(d);
        g.insert(ext, &sub).unwrap();
        for k in 0..4 {
            for j in 0..5 {
                for i in 0..6 {
                    let expect = if ext.contains((i, j, k)) {
                        f.get(i, j, k)
                    } else {
                        0.0
                    };
                    assert_eq!(g.get(i, j, k), expect);
                }
            }
        }
    }

    #[test]
    fn extract_out_of_bounds() {
        let f = ramp(Dims3::new(4, 4, 4));
        let ext = Extent3::new((2, 2, 2), (5, 4, 4));
        assert_eq!(f.extract(ext), Err(GridError::OutOfBounds));
        assert_eq!(f.extract_shared(ext), Err(GridError::OutOfBounds));
    }

    #[test]
    fn a_shared_extract_is_the_extract() {
        let f = ramp(Dims3::new(6, 5, 4));
        for ext in [
            Extent3::new((1, 1, 1), (4, 4, 3)),
            Extent3::new((0, 0, 0), (6, 5, 4)),
            Extent3::new((5, 4, 3), (6, 5, 4)),
            // Empty along x, and along z.
            Extent3::new((2, 1, 1), (2, 4, 3)),
            Extent3::new((1, 1, 2), (4, 4, 2)),
        ] {
            assert_eq!(
                &*f.extract_shared(ext).unwrap(),
                &f.extract(ext).unwrap()[..]
            );
        }
    }

    #[test]
    fn min_max() {
        let f = ramp(Dims3::new(3, 3, 3));
        assert_eq!(f.min_max(), Some((0.0, 222.0)));
        let empty = Field3::zeros(Dims3::new(0, 3, 3));
        assert_eq!(empty.min_max(), None);
    }

    #[test]
    fn slice_z_layout() {
        let f = ramp(Dims3::new(3, 2, 2));
        let s = f.slice_z(1).unwrap();
        assert_eq!(s, vec![100.0, 101.0, 102.0, 110.0, 111.0, 112.0]);
        assert!(f.slice_z(2).is_err());
    }
}

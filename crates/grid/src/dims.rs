//! Index-space shapes ([`Dims3`]) and axis-aligned boxes ([`Extent3`]).

use std::fmt;

/// The shape of a 3D array of grid points.
///
/// Layout convention throughout the workspace: `x` is the fastest-varying
/// axis, i.e. linear index = `i + nx*(j + ny*k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Dims3 {
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self { nx, ny, nz }
    }

    /// Total number of points.
    pub const fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of point `(i, j, k)`.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Inverse of [`Dims3::idx`].
    #[inline]
    pub fn coords_of(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.len());
        let i = idx % self.nx;
        let j = (idx / self.nx) % self.ny;
        let k = idx / (self.nx * self.ny);
        (i, j, k)
    }

    /// Component-wise division; `None` unless every axis divides exactly.
    pub fn exact_div(&self, other: Dims3) -> Option<Dims3> {
        if other.nx == 0 || other.ny == 0 || other.nz == 0 {
            return None;
        }
        if self.nx.is_multiple_of(other.nx)
            && self.ny.is_multiple_of(other.ny)
            && self.nz.is_multiple_of(other.nz)
        {
            Some(Dims3::new(
                self.nx / other.nx,
                self.ny / other.ny,
                self.nz / other.nz,
            ))
        } else {
            None
        }
    }

    /// Iterate over all `(i, j, k)` points in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let d = *self;
        (0..d.len()).map(move |idx| d.coords_of(idx))
    }
}

impl fmt::Display for Dims3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

/// A half-open box `[lo, hi)` of grid points inside a larger array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent3 {
    pub lo: (usize, usize, usize),
    pub hi: (usize, usize, usize),
}

impl Extent3 {
    pub fn new(lo: (usize, usize, usize), hi: (usize, usize, usize)) -> Self {
        debug_assert!(lo.0 <= hi.0 && lo.1 <= hi.1 && lo.2 <= hi.2);
        Self { lo, hi }
    }

    /// The shape of the box.
    pub fn dims(&self) -> Dims3 {
        Dims3::new(
            self.hi.0 - self.lo.0,
            self.hi.1 - self.lo.1,
            self.hi.2 - self.lo.2,
        )
    }

    pub fn len(&self) -> usize {
        self.dims().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the point lies inside the box.
    pub fn contains(&self, p: (usize, usize, usize)) -> bool {
        p.0 >= self.lo.0
            && p.0 < self.hi.0
            && p.1 >= self.lo.1
            && p.1 < self.hi.1
            && p.2 >= self.lo.2
            && p.2 < self.hi.2
    }

    /// Whether `self` fits entirely inside an array of shape `dims`.
    pub fn fits_in(&self, dims: Dims3) -> bool {
        self.hi.0 <= dims.nx && self.hi.1 <= dims.ny && self.hi.2 <= dims.nz
    }
}

impl fmt::Display for Extent3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{},{},{})..[{},{},{})",
            self.lo.0, self.lo.1, self.lo.2, self.hi.0, self.hi.1, self.hi.2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_roundtrip() {
        let d = Dims3::new(4, 5, 6);
        for k in 0..6 {
            for j in 0..5 {
                for i in 0..4 {
                    let idx = d.idx(i, j, k);
                    assert_eq!(d.coords_of(idx), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn idx_is_x_fastest() {
        let d = Dims3::new(4, 5, 6);
        assert_eq!(d.idx(1, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0), 4);
        assert_eq!(d.idx(0, 0, 1), 20);
    }

    #[test]
    fn exact_div() {
        let d = Dims3::new(40, 40, 10);
        assert_eq!(d.exact_div(Dims3::new(8, 8, 1)), Some(Dims3::new(5, 5, 10)));
        assert_eq!(d.exact_div(Dims3::new(3, 8, 1)), None);
        assert_eq!(d.exact_div(Dims3::new(0, 8, 1)), None);
    }

    #[test]
    fn extent_dims_and_contains() {
        let e = Extent3::new((1, 2, 3), (4, 6, 9));
        assert_eq!(e.dims(), Dims3::new(3, 4, 6));
        assert_eq!(e.len(), 72);
        assert!(e.contains((1, 2, 3)));
        assert!(e.contains((3, 5, 8)));
        assert!(!e.contains((4, 2, 3)));
        assert!(!e.contains((0, 2, 3)));
    }

    #[test]
    fn dims_iter_order() {
        let d = Dims3::new(2, 2, 1);
        let pts: Vec<_> = d.iter().collect();
        assert_eq!(pts, vec![(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]);
    }
}

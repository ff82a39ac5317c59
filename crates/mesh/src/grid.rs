//! Uniform cell-centered rectangular grids.

use crate::MeshError;

/// A uniform, cell-centered 2-D grid.
///
/// Cells are indexed `(ix, iy)` with `ix ∈ [0, nx)`, `iy ∈ [0, ny)`. The
/// linear index is `iy·nx + ix` (x fastest), matching the assembly order of
/// the sparse solvers. Physical cell centers are at
/// `((ix + ½)·dx, (iy + ½)·dy)` relative to the grid origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    nx: usize,
    ny: usize,
    dx: f64,
    dy: f64,
}

impl Grid2d {
    /// Creates a grid with `nx × ny` cells of size `dx × dy` (metres).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidGrid`] if a dimension is zero, the
    /// cell count `nx·ny` overflows `usize`, or a spacing is not
    /// strictly positive and finite.
    pub fn new(nx: usize, ny: usize, dx: f64, dy: f64) -> Result<Self, MeshError> {
        if nx == 0 || ny == 0 {
            return Err(MeshError::InvalidGrid(format!(
                "grid dimensions must be positive, got {nx}x{ny}"
            )));
        }
        if nx.checked_mul(ny).is_none() {
            return Err(MeshError::InvalidGrid(format!(
                "grid of {nx}x{ny} cells overflows the cell count"
            )));
        }
        if !(dx > 0.0 && dx.is_finite() && dy > 0.0 && dy.is_finite()) {
            return Err(MeshError::InvalidGrid(format!(
                "cell sizes must be positive and finite, got dx={dx}, dy={dy}"
            )));
        }
        Ok(Self { nx, ny, dx, dy })
    }

    /// Creates the grid covering a `width × height` domain (metres) with
    /// `nx × ny` cells.
    ///
    /// # Errors
    ///
    /// As [`Grid2d::new`].
    pub fn from_extent(width: f64, height: f64, nx: usize, ny: usize) -> Result<Self, MeshError> {
        if nx == 0 || ny == 0 {
            return Err(MeshError::InvalidGrid(format!(
                "grid dimensions must be positive, got {nx}x{ny}"
            )));
        }
        Self::new(nx, ny, width / nx as f64, height / ny as f64)
    }

    /// Number of cells along x.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of cells along y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell size along x (m).
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Cell size along y (m).
    #[inline]
    pub fn dy(&self) -> f64 {
        self.dy
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Always false for a constructed grid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Domain width `nx·dx` (m).
    #[inline]
    pub fn width(&self) -> f64 {
        self.nx as f64 * self.dx
    }

    /// Domain height `ny·dy` (m).
    #[inline]
    pub fn height(&self) -> f64 {
        self.ny as f64 * self.dy
    }

    /// Area of one cell (m²).
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.dx * self.dy
    }

    /// Linear index of cell `(ix, iy)`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::OutOfBounds`] outside the grid.
    #[inline]
    pub fn index(&self, ix: usize, iy: usize) -> Result<usize, MeshError> {
        if ix >= self.nx || iy >= self.ny {
            return Err(MeshError::OutOfBounds {
                ix,
                iy,
                nx: self.nx,
                ny: self.ny,
            });
        }
        Ok(iy * self.nx + ix)
    }

    /// Inverse of [`Grid2d::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        assert!(idx < self.len(), "linear index {idx} outside grid");
        (idx % self.nx, idx / self.nx)
    }

    /// Physical center of cell `(ix, iy)` in metres from the grid origin.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::OutOfBounds`] outside the grid.
    pub fn cell_center(&self, ix: usize, iy: usize) -> Result<(f64, f64), MeshError> {
        self.index(ix, iy)?;
        Ok((
            (ix as f64 + 0.5) * self.dx,
            (iy as f64 + 0.5) * self.dy,
        ))
    }

    /// Cell containing physical point `(x, y)` (clamped to the domain).
    pub fn locate(&self, x: f64, y: f64) -> (usize, usize) {
        let ix = ((x / self.dx).floor().max(0.0) as usize).min(self.nx - 1);
        let iy = ((y / self.dy).floor().max(0.0) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// The four edge-neighbours of `(ix, iy)` that exist.
    pub fn neighbors(&self, ix: usize, iy: usize) -> impl Iterator<Item = (usize, usize)> {
        let nx = self.nx;
        let ny = self.ny;
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(4);
        if ix > 0 {
            out.push((ix - 1, iy));
        }
        if ix + 1 < nx {
            out.push((ix + 1, iy));
        }
        if iy > 0 {
            out.push((ix, iy - 1));
        }
        if iy + 1 < ny {
            out.push((ix, iy + 1));
        }
        out.into_iter()
    }

    /// Iterates over all `(ix, iy)` pairs in linear-index order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize)> {
        let nx = self.nx;
        (0..self.len()).map(move |idx| (idx % nx, idx / nx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let g = Grid2d::new(5, 3, 1.0, 2.0).unwrap();
        for iy in 0..3 {
            for ix in 0..5 {
                let idx = g.index(ix, iy).unwrap();
                assert_eq!(g.coords(idx), (ix, iy));
            }
        }
        assert!(g.index(5, 0).is_err());
        assert!(g.index(0, 3).is_err());
    }

    #[test]
    fn extent_constructor_divides_domain() {
        let g = Grid2d::from_extent(26.55e-3, 21.34e-3, 100, 80).unwrap();
        assert!((g.width() - 26.55e-3).abs() < 1e-12);
        assert!((g.height() - 21.34e-3).abs() < 1e-12);
        assert_eq!(g.len(), 8000);
    }

    #[test]
    fn rejects_a_cell_count_that_overflows() {
        let side = 1usize << (usize::BITS / 2);
        assert!(Grid2d::new(side, side, 1.0, 1.0).is_err());
        assert!(Grid2d::new(side - 1, side, 1.0, 1.0).is_ok());
    }

    #[test]
    fn cell_centers_and_locate_are_inverse() {
        let g = Grid2d::new(10, 7, 0.3e-3, 0.4e-3).unwrap();
        for iy in 0..7 {
            for ix in 0..10 {
                let (x, y) = g.cell_center(ix, iy).unwrap();
                assert_eq!(g.locate(x, y), (ix, iy));
            }
        }
    }

    #[test]
    fn locate_clamps_outside_domain() {
        let g = Grid2d::new(4, 4, 1.0, 1.0).unwrap();
        assert_eq!(g.locate(-5.0, -5.0), (0, 0));
        assert_eq!(g.locate(100.0, 100.0), (3, 3));
    }

    #[test]
    fn corner_cells_have_two_neighbors() {
        let g = Grid2d::new(3, 3, 1.0, 1.0).unwrap();
        assert_eq!(g.neighbors(0, 0).count(), 2);
        assert_eq!(g.neighbors(1, 1).count(), 4);
        assert_eq!(g.neighbors(2, 1).count(), 3);
    }

    #[test]
    fn rejects_degenerate_grids() {
        assert!(Grid2d::new(0, 3, 1.0, 1.0).is_err());
        assert!(Grid2d::new(3, 3, 0.0, 1.0).is_err());
        assert!(Grid2d::new(3, 3, 1.0, f64::NAN).is_err());
        assert!(Grid2d::from_extent(1.0, 1.0, 0, 5).is_err());
    }

    #[test]
    fn iter_cells_covers_grid_in_linear_order() {
        let g = Grid2d::new(3, 2, 1.0, 1.0).unwrap();
        let cells: Vec<_> = g.iter_cells().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], (0, 0));
        assert_eq!(cells[3], (0, 1));
        assert_eq!(cells[5], (2, 1));
    }
}

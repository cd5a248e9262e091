//! Uniform real-space grids for one-dimensionally periodic systems.
//!
//! The simulation cell is a box of `nx × ny × nz` points with spacings
//! `(hx, hy, hz)`.  Following the paper, the `z` axis is the transport /
//! periodicity direction of the 1-D crystal: the cell repeats with period
//! `a = nz * hz` along `z`, while `x` and `y` are treated as periodic
//! lateral directions sampled at the Γ point (bulk) or padded with vacuum
//! (isolated wires such as carbon nanotubes).

/// Identifies which unit cell a stencil neighbour falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellShift {
    /// The previous unit cell (`n-1`); contributes to `H_{n,n-1}`.
    Previous,
    /// The same unit cell; contributes to `H_{n,n}`.
    Same,
    /// The next unit cell (`n+1`); contributes to `H_{n,n+1}`.
    Next,
}

/// A uniform 3-D grid over one unit cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid3 {
    /// Number of grid points along x.
    pub nx: usize,
    /// Number of grid points along y.
    pub ny: usize,
    /// Number of grid points along z (the periodic transport direction).
    pub nz: usize,
    /// Grid spacing along x (bohr).
    pub hx: f64,
    /// Grid spacing along y (bohr).
    pub hy: f64,
    /// Grid spacing along z (bohr).
    pub hz: f64,
}

impl Grid3 {
    /// Create a grid with the given point counts and spacings.
    pub fn new(nx: usize, ny: usize, nz: usize, hx: f64, hy: f64, hz: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid must have at least one point per axis");
        assert!(hx > 0.0 && hy > 0.0 && hz > 0.0, "grid spacings must be positive");
        Self { nx, ny, nz, hx, hy, hz }
    }

    /// Isotropic grid (same spacing in all directions).
    pub fn isotropic(nx: usize, ny: usize, nz: usize, h: f64) -> Self {
        Self::new(nx, ny, nz, h, h, h)
    }

    /// Total number of points per unit cell (the Hamiltonian dimension in a
    /// single-component, Γ-point calculation).
    pub fn npoints(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Cell extent along x (bohr).
    pub fn lx(&self) -> f64 {
        self.nx as f64 * self.hx
    }

    /// Cell extent along y (bohr).
    pub fn ly(&self) -> f64 {
        self.ny as f64 * self.hy
    }

    /// Period of the crystal along z (bohr).  This is the lattice constant
    /// `a` entering `λ = exp(i k a)`.
    pub fn lz(&self) -> f64 {
        self.nz as f64 * self.hz
    }

    /// Volume element `hx hy hz` (bohr³) for grid integrations.
    pub fn dv(&self) -> f64 {
        self.hx * self.hy * self.hz
    }

    /// Linear index of the grid point `(i, j, k)`; x varies fastest.
    #[inline(always)]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Inverse of [`index`](Self::index).
    #[inline(always)]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.npoints());
        let i = idx % self.nx;
        let j = (idx / self.nx) % self.ny;
        let k = idx / (self.nx * self.ny);
        (i, j, k)
    }

    /// Cartesian position (bohr) of a grid point, with the cell spanning
    /// `[0, L)` in each direction.
    pub fn position(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [i as f64 * self.hx, j as f64 * self.hy, k as f64 * self.hz]
    }

    /// Wrap a (possibly negative) lateral index periodically.
    #[inline(always)]
    pub fn wrap_x(&self, i: isize) -> usize {
        i.rem_euclid(self.nx as isize) as usize
    }

    /// Wrap a (possibly negative) lateral index periodically.
    #[inline(always)]
    pub fn wrap_y(&self, j: isize) -> usize {
        j.rem_euclid(self.ny as isize) as usize
    }

    /// Resolve a z-offset neighbour: returns the local z index and the unit
    /// cell it belongs to.  Offsets larger than one cell are rejected (the
    /// finite-difference half-width must satisfy `nf <= nz`).
    #[inline]
    pub fn neighbor_z(&self, k: usize, offset: isize) -> (CellShift, usize) {
        let kk = k as isize + offset;
        let nz = self.nz as isize;
        if kk < 0 {
            debug_assert!(kk >= -nz, "stencil reaches beyond the previous cell");
            (CellShift::Previous, (kk + nz) as usize)
        } else if kk >= nz {
            debug_assert!(kk < 2 * nz, "stencil reaches beyond the next cell");
            (CellShift::Next, (kk - nz) as usize)
        } else {
            (CellShift::Same, kk as usize)
        }
    }

    /// Minimum-image displacement from `from` to `to` treating x and y as
    /// periodic and z as open (within one cell).  Used when evaluating
    /// atom-centred quantities on the grid.
    pub fn min_image_xy(&self, from: [f64; 3], to: [f64; 3]) -> [f64; 3] {
        let mut d = [to[0] - from[0], to[1] - from[1], to[2] - from[2]];
        let lx = self.lx();
        let ly = self.ly();
        d[0] -= lx * (d[0] / lx).round();
        d[1] -= ly * (d[1] / ly).round();
        d
    }

    /// Iterate over all grid points as `(i, j, k, linear_index)`.
    pub fn iter_points(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nz).flat_map(move |k| {
            (0..ny).flat_map(move |j| (0..nx).map(move |i| (i, j, k, i + nx * (j + ny * k))))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let g = Grid3::isotropic(4, 5, 6, 0.4);
        assert_eq!(g.npoints(), 120);
        for idx in 0..g.npoints() {
            let (i, j, k) = g.coords(idx);
            assert_eq!(g.index(i, j, k), idx);
        }
    }

    #[test]
    fn ordering_is_x_fastest() {
        let g = Grid3::isotropic(3, 3, 3, 1.0);
        assert_eq!(g.index(1, 0, 0), 1);
        assert_eq!(g.index(0, 1, 0), 3);
        assert_eq!(g.index(0, 0, 1), 9);
    }

    #[test]
    fn lateral_wrapping() {
        let g = Grid3::isotropic(5, 4, 3, 1.0);
        assert_eq!(g.wrap_x(-1), 4);
        assert_eq!(g.wrap_x(5), 0);
        assert_eq!(g.wrap_y(-2), 2);
        assert_eq!(g.wrap_y(7), 3);
    }

    #[test]
    fn z_neighbors_classify_cells() {
        let g = Grid3::isotropic(2, 2, 6, 1.0);
        assert_eq!(g.neighbor_z(3, 2), (CellShift::Same, 5));
        assert_eq!(g.neighbor_z(5, 1), (CellShift::Next, 0));
        assert_eq!(g.neighbor_z(0, -1), (CellShift::Previous, 5));
        assert_eq!(g.neighbor_z(0, -4), (CellShift::Previous, 2));
        assert_eq!(g.neighbor_z(5, 4), (CellShift::Next, 3));
    }

    #[test]
    fn geometry_quantities() {
        let g = Grid3::new(10, 20, 30, 0.3, 0.2, 0.1);
        assert!((g.lx() - 3.0).abs() < 1e-14);
        assert!((g.ly() - 4.0).abs() < 1e-14);
        assert!((g.lz() - 3.0).abs() < 1e-14);
        assert!((g.dv() - 0.006).abs() < 1e-14);
        let p = g.position(1, 2, 3);
        for (got, want) in p.iter().zip(&[0.3, 0.4, 0.3]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn min_image_wraps_lateral_directions_only() {
        let g = Grid3::isotropic(10, 10, 10, 1.0);
        let d = g.min_image_xy([9.0, 0.5, 0.0], [0.0, 9.5, 8.0]);
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] + 1.0).abs() < 1e-12);
        assert!((d[2] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn iter_points_covers_grid_once() {
        let g = Grid3::isotropic(3, 2, 2, 1.0);
        let mut seen = vec![false; g.npoints()];
        for (i, j, k, idx) in g.iter_points() {
            assert_eq!(g.index(i, j, k), idx);
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

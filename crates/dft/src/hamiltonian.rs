//! Assembly of the periodic block Hamiltonian on the real-space grid.
//!
//! For a 1-D periodic system the Kohn-Sham Hamiltonian is block tridiagonal
//! in the unit-cell index `n`:
//!
//! ```text
//!  H = ⎡ ...                         ⎤
//!      ⎢  H₁₀  H₀₀  H₀₁              ⎥
//!      ⎢       H₁₀  H₀₀  H₀₁         ⎥     with  H₁₀ = H₀₁†
//!      ⎣ ...                         ⎦
//! ```
//!
//! `H₀₀` collects the kinetic stencil inside the cell (with periodic wrap in
//! the lateral x/y directions), the local pseudopotential (diagonal) and the
//! non-local projector terms whose bra and ket both live in the cell.
//! `H₀₁` collects the kinetic stencil legs that cross the upper z boundary
//! and the projector terms whose support straddles it.
//!
//! Both blocks are stored once, as one real [`RealStencil`]: `build` writes
//! its rows directly, grid row by grid row (the `f64` coefficients with
//! `u32` indices, an explicit `H₀₁ᵀ`, and the projectors as real sparse
//! factors), so the operator application stays O(N) in time and memory —
//! the property the paper's method depends on — and the solve reads the
//! same storage the Hamiltonian holds.  The complex forms (`h00_csr`, the
//! dense Bloch matrix) and the benchmark's `qep_factored` are built from it
//! only when asked for.

use cbs_grid::{CellShift, FdOrder, Grid3, KINETIC_PREFACTOR};
use cbs_linalg::{CMatrix, Complex64};
use cbs_sparse::{Block, CsrMatrix, RealStencil, StencilBlock, StencilBuilder};

use crate::atoms::AtomicStructure;
use crate::pseudopotential::{channel_multiplicity, local_potential_on_grid, projector_on_grid};

/// Options controlling the Hamiltonian assembly.
#[derive(Clone, Copy, Debug)]
pub struct HamiltonianParams {
    /// Finite-difference half-width (the paper uses `N_f = 4`).
    pub fd: FdOrder,
    /// Include the separable non-local projectors.
    pub include_nonlocal: bool,
}

impl Default for HamiltonianParams {
    fn default() -> Self {
        Self { fd: FdOrder::PAPER, include_nonlocal: true }
    }
}

/// The two independent blocks `H₀₀`, `H₀₁` of the periodic Hamiltonian,
/// stored as one real stencil (module docs).
#[derive(Clone, Debug)]
pub struct BlockHamiltonian {
    /// The real-space grid of one unit cell.
    pub grid: Grid3,
    /// Finite-difference order used for the Laplacian.
    pub fd: FdOrder,
    /// Name of the underlying structure (for reports).
    pub label: String,
    stencil: RealStencil,
}

/// A view of one Hamiltonian block (`sparse + projectors`) as a single
/// matrix-free [`LinearOperator`](cbs_sparse::LinearOperator): a block of
/// the Hamiltonian's stencil.
pub type BlockOp<'a> = StencilBlock<'a>;

/// Refuse a grid with more points than the stencil's `u32` rows, columns
/// and offsets address (see [`FdOrder`]).  A block's templates stay far
/// below their `u32` entry limit at any grid size: per axis at most
/// `2·N_f + 1` neighbourhoods (the interior and `N_f` wrapped rows at each
/// side), each with its diagonal stored or not, and `6·N_f` off-diagonal
/// entries per template.
fn check_stencil_size(grid: &Grid3) {
    const {
        let templates = 2 * (2 * FdOrder::MAX_NF + 1).pow(3);
        assert!(templates * 6 * FdOrder::MAX_NF <= RealStencil::MAX_ENTRIES);
    };
    let n = grid.npoints();
    assert!(
        n <= RealStencil::MAX_DIM,
        "a {}x{}x{} grid has {n} points, past the real stencil's u32 limit of {} points",
        grid.nx,
        grid.ny,
        grid.nz,
        RealStencil::MAX_DIM
    );
}

impl BlockHamiltonian {
    /// Assemble the blocks for `structure` discretized on `grid`.
    ///
    /// Each grid row takes its x, y and z stencil legs, then its local
    /// potential; the [`StencilBuilder`] merges them by column and shares
    /// one row template among the rows of one grid neighbourhood.  Panics if
    /// the grid is past the stencil's `u32` limit (see [`FdOrder`]), or if
    /// the finite-difference stencil or a projector would couple beyond
    /// nearest-neighbour cells — `nf > nz`, cutoff ≥ period, or a projector
    /// sphere wide enough (`2·cutoff > period`, atom mid-cell) that its
    /// previous- *and* next-cell images both reach the home cell, which is
    /// an `H₀₂` term `|P₊₁⟩⟨P₋₁|` — because then the block-tridiagonal form
    /// (and the QEP) would not hold.
    pub fn build(grid: Grid3, structure: &AtomicStructure, params: HamiltonianParams) -> Self {
        structure.validate().expect("invalid atomic structure");
        assert!(
            params.fd.nf <= grid.nz,
            "finite-difference half-width {} exceeds nz = {}",
            params.fd.nf,
            grid.nz
        );
        check_stencil_size(&grid);
        let n = grid.npoints();
        let mut builder = StencilBuilder::new(n);

        // --- Kinetic energy -1/2 ∇² with the high-order stencil, and the
        // local pseudopotential on the diagonal of H₀₀. ---
        let legs = [grid.hx, grid.hy, grid.hz].map(|h| {
            let stencil = cbs_grid::laplacian_stencil_1d(params.fd.nf, h);
            stencil.into_iter().map(|(off, w)| (off, KINETIC_PREFACTOR * w)).collect::<Vec<_>>()
        });
        let vloc = local_potential_on_grid(&grid, &structure.atoms);
        let (mut row00, mut row01) = (Vec::new(), Vec::new());
        for (i, j, k, row) in grid.iter_points() {
            for &(off, w) in &legs[0] {
                row00.push((grid.index(grid.wrap_x(i as isize + off), j, k), w));
            }
            for &(off, w) in &legs[1] {
                row00.push((grid.index(i, grid.wrap_y(j as isize + off), k), w));
            }
            for &(off, w) in &legs[2] {
                let (shift, kk) = grid.neighbor_z(k, off);
                let col = grid.index(i, j, kk);
                match shift {
                    CellShift::Same => row00.push((col, w)),
                    CellShift::Next => row01.push((col, w)),
                    // Previous-cell legs belong to H₁₀ = H₀₁† and are not
                    // stored separately.
                    CellShift::Previous => {}
                }
            }
            row00.push((row, vloc[row]));
            builder.push_row(&mut row00, &mut row01);
            row00.clear();
            row01.clear();
        }

        // --- Non-local projectors (separable Kleinman-Bylander form). ---
        if params.include_nonlocal {
            let lz = grid.lz();
            for atom in &structure.atoms {
                let pseudo = atom.element.pseudo();
                let assert_nearest_neighbour = |holds: bool| {
                    assert!(
                        holds,
                        "projector cutoff {} of {} must be smaller than the period {} \
                         (otherwise the Hamiltonian couples beyond nearest-neighbour cells)",
                        pseudo.projector_cutoff,
                        atom.element.symbol(),
                        lz
                    );
                };
                assert_nearest_neighbour(pseudo.projector_cutoff < lz);
                for ch in &pseudo.channels {
                    for m in 0..channel_multiplicity(ch) {
                        // Projector of the atom and of its images in the
                        // previous / next cell, evaluated on the home window.
                        let p_m1 = projector_on_grid(&grid, atom, ch, m, -lz);
                        let p_0 = projector_on_grid(&grid, atom, ch, m, 0.0);
                        let p_p1 = projector_on_grid(&grid, atom, ch, m, lz);
                        // Both images in the home cell would need the
                        // next-nearest block |P₊₁⟩⟨P₋₁|, which the QEP has
                        // no place for: dropping it silently is wrong.
                        assert_nearest_neighbour(p_m1.is_empty() || p_p1.is_empty());
                        let e = ch.energy;
                        // H00 gets |P_s⟩⟨P_s| for every image that touches the cell.
                        for p in [&p_m1, &p_0, &p_p1] {
                            builder.push_projector(Block::H00, p, p, e);
                        }
                        // H01 gets |P_s⟩⟨P_{s-1}| for s = 0 (atom spilling up)
                        // and s = +1 (next-cell image spilling down).
                        builder.push_projector(Block::H01, &p_0, &p_m1, e);
                        builder.push_projector(Block::H01, &p_p1, &p_0, e);
                    }
                }
            }
        }

        Self { grid, fd: params.fd, label: structure.name.clone(), stencil: builder.finish() }
    }

    /// Dimension of the blocks (number of grid points).
    pub fn dim(&self) -> usize {
        self.grid.npoints()
    }

    /// Matrix-free view of `H₀₀`.
    pub fn h00(&self) -> BlockOp<'_> {
        self.stencil.h00()
    }

    /// Matrix-free view of `H₀₁`.
    pub fn h01(&self) -> BlockOp<'_> {
        self.stencil.h01()
    }

    /// The stored operator: both blocks as one real stencil.
    pub fn stencil(&self) -> &RealStencil {
        &self.stencil
    }

    /// Explicit complex CSR form of `H₀₀` (kinetic + local + projectors
    /// expanded), built on each call.
    pub fn h00_csr(&self) -> CsrMatrix {
        Self::expanded(self.h00())
    }

    /// Explicit complex CSR form of `H₀₁`, built on each call.
    pub fn h01_csr(&self) -> CsrMatrix {
        Self::expanded(self.h01())
    }

    fn expanded(block: BlockOp<'_>) -> CsrMatrix {
        let (sparse, projectors) = (block.sparse_csr(), block.projectors());
        if projectors.rank() == 0 {
            sparse
        } else {
            sparse.add_scaled(Complex64::ONE, &projectors.to_csr())
        }
    }

    /// The QEP split as the repo benchmark's per-layer replay times it,
    /// built on each call: a copy of the stencil's **sparse** rows (the
    /// kinetic and local terms, no projectors) paired with the non-local
    /// projectors in complex factored form (`cbs_sparse::vestige`).  No
    /// solve reads it.  Released by ROADMAP 1(a).
    pub fn qep_factored(&self) -> (cbs_sparse::AssembledPattern, cbs_sparse::FactoredProjector) {
        (
            cbs_sparse::AssembledPattern::new(&self.stencil),
            cbs_sparse::FactoredProjector::new(self.h00().projectors(), self.h01().projectors()),
        )
    }

    /// Bytes of the stored operator — the stencil every solve reads — the
    /// quantity compared against the dense OBM storage in the paper's
    /// Figure 4(b).
    pub fn memory_bytes(&self) -> usize {
        self.stencil.memory_bytes()
    }

    /// Stored entries of the sparse parts of `H₀₀` and `H₀₁`.
    pub fn nnz(&self) -> usize {
        self.stencil.nnz()
    }

    /// Dense Bloch Hamiltonian `H(k) = H₀₀ + e^{ika} H₀₁ + e^{-ika} H₀₁†`
    /// for a real wave number `k` (1/bohr).  Only intended for the small
    /// grids used in tests and reference band structures.
    pub fn bloch_hamiltonian_dense(&self, k: f64) -> CMatrix {
        let a = self.grid.lz();
        let phase = Complex64::cis(k * a);
        let h00 = self.h00_csr().to_dense();
        let h01 = self.h01_csr().to_dense();
        let h10 = h01.adjoint();
        let mut h = h00;
        let n = self.dim();
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] += phase * h01[(i, j)] + phase.conj() * h10[(i, j)];
            }
        }
        h
    }

    /// The lattice period `a` along the transport direction (bohr).
    pub fn period(&self) -> f64 {
        self.grid.lz()
    }
}

/// Suggest a grid for a structure given a target spacing (bohr): point
/// counts are rounded so the spacing is as close as possible to the target.
pub fn grid_for_structure(structure: &AtomicStructure, target_spacing: f64) -> Grid3 {
    let round_pts = |length: f64| -> usize { ((length / target_spacing).round() as usize).max(4) };
    let nx = round_pts(structure.lateral.0);
    let ny = round_pts(structure.lateral.1);
    let nz = round_pts(structure.period);
    Grid3::new(
        nx,
        ny,
        nz,
        structure.lateral.0 / nx as f64,
        structure.lateral.1 / ny as f64,
        structure.period / nz as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::{Atom, Element};
    use crate::structures::bulk_al_100;
    use cbs_sparse::{adjoint_defect, CooBuilder, LinearOperator};
    use rand::SeedableRng;

    fn tiny_structure() -> AtomicStructure {
        AtomicStructure {
            name: "tiny".into(),
            atoms: vec![
                Atom::new(Element::C, [1.5, 1.5, 1.0]),
                Atom::new(Element::C, [1.5, 1.5, 2.6]),
            ],
            lateral: (3.0, 3.0),
            period: 3.6,
        }
    }

    fn tiny_hamiltonian(nonlocal: bool) -> BlockHamiltonian {
        let s = tiny_structure();
        let grid = Grid3::new(6, 6, 8, 0.5, 0.5, 0.45);
        BlockHamiltonian::build(
            grid,
            &s,
            HamiltonianParams { fd: FdOrder::new(2), include_nonlocal: nonlocal },
        )
    }

    #[test]
    fn h00_is_hermitian() {
        let h = tiny_hamiltonian(true);
        let d = h.h00_csr();
        assert!(d.hermiticity_defect() < 1e-12, "defect {}", d.hermiticity_defect());
    }

    #[test]
    fn blocks_satisfy_adjoint_identity() {
        let h = tiny_hamiltonian(true);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(101);
        assert!(adjoint_defect(&h.h00(), 5, &mut rng) < 1e-12);
        assert!(adjoint_defect(&h.h01(), 5, &mut rng) < 1e-12);
    }

    #[test]
    fn previous_cell_coupling_equals_h01_adjoint() {
        // Rebuild the H10 block explicitly from the stencil and compare with
        // the adjoint of the stored H01 (kinetic-only Hamiltonian).
        let s = tiny_structure();
        let grid = Grid3::new(5, 5, 7, 0.55, 0.55, 0.5);
        let fd = FdOrder::new(3);
        let h =
            BlockHamiltonian::build(grid, &s, HamiltonianParams { fd, include_nonlocal: false });
        let n = grid.npoints();
        let mut b10 = CooBuilder::new(n, n);
        let stencil = cbs_grid::laplacian_stencil_1d(fd.nf, grid.hz);
        for (i, j, k, row) in grid.iter_points() {
            for &(off, w) in &stencil {
                let (shift, kk) = grid.neighbor_z(k, off);
                if shift == CellShift::Previous {
                    b10.push(row, grid.index(i, j, kk), Complex64::real(KINETIC_PREFACTOR * w));
                }
            }
        }
        let h10 = b10.build();
        let defect = h10.add_scaled(-Complex64::ONE, &h.h01_csr().adjoint());
        assert!(defect.fro_norm() < 1e-12, "H10 != H01† (defect {})", defect.fro_norm());
    }

    #[test]
    fn matrix_free_matches_csr() {
        let h = tiny_hamiltonian(true);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(102);
        let x = cbs_linalg::CVector::random(h.dim(), &mut rng);
        let y_op = h.h00().apply_vec(&x);
        let y_csr = h.h00_csr().matvec(&x);
        assert!((&y_op - &y_csr).norm() < 1e-11);
        let z_op = h.h01().apply_vec(&x);
        let z_csr = h.h01_csr().matvec(&x);
        assert!((&z_op - &z_csr).norm() < 1e-11);
    }

    #[test]
    fn h01_couples_only_boundary_planes() {
        let h = tiny_hamiltonian(false);
        let nf = h.fd.nf;
        let grid = h.grid;
        let csr = h.h01_csr();
        for row in 0..csr.nrows() {
            for (col, _) in csr.row_entries(row) {
                let (_, _, k) = grid.coords(row);
                assert!(k >= grid.nz - nf, "row {row} at plane {k} couples to the next cell");
                let (_, _, k) = grid.coords(col);
                assert!(k < nf, "column {col} at plane {k} is reachable from the previous cell");
            }
        }
    }

    #[test]
    fn bloch_hamiltonian_is_hermitian_for_real_k() {
        let h = tiny_hamiltonian(true);
        for &k in &[0.0, 0.3, std::f64::consts::PI / h.period()] {
            let hk = h.bloch_hamiltonian_dense(k);
            assert!(hk.hermiticity_defect() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn kinetic_energy_is_positive_definite_without_potential() {
        // With no atoms the Hamiltonian is the pure kinetic operator, whose
        // Bloch matrix at k=0 must be positive semi-definite.
        let empty = AtomicStructure {
            name: "empty".into(),
            atoms: vec![],
            lateral: (3.0, 3.0),
            period: 3.0,
        };
        let grid = Grid3::isotropic(5, 5, 6, 0.55);
        let h = BlockHamiltonian::build(grid, &empty, HamiltonianParams::default());
        let hk = h.bloch_hamiltonian_dense(0.0);
        let evals = cbs_linalg::eigenvalues(&hk).unwrap();
        for e in evals {
            assert!(e.re > -1e-9, "kinetic eigenvalue {e:?} should be non-negative");
            assert!(e.im.abs() < 1e-9);
        }
    }

    #[test]
    fn al_bulk_hamiltonian_assembles_with_expected_sparsity() {
        let s = bulk_al_100(1);
        let grid = grid_for_structure(&s, 0.9);
        let h = BlockHamiltonian::build(grid, &s, HamiltonianParams::default());
        let n = h.dim();
        // Kinetic stencil gives at most 3 * 2*nf + 1 entries per row in H00.
        let max_per_row = 3 * 2 * h.fd.nf + 1;
        let nnz = h.h00().sparse_csr().nnz();
        assert!(nnz <= n * max_per_row);
        // At least the diagonal.
        assert!(nnz >= n);
        // Memory should be far below the dense storage.
        let dense_bytes = n * n * std::mem::size_of::<Complex64>();
        assert!(h.memory_bytes() * 10 < dense_bytes);
    }

    /// Strong consistency check of the block decomposition: a supercell of
    /// two unit cells must reproduce the single-cell blocks exactly,
    ///   H00_super = [[H00, H01], [H01†, H00]],   H01_super = [[0, 0], [H01, 0]].
    /// This exercises the kinetic z-splitting, the local-potential images and
    /// the straddling non-local projector terms all at once.
    #[test]
    fn doubled_supercell_reproduces_block_structure() {
        let s = tiny_structure();
        let grid = Grid3::new(5, 5, 8, 0.6, 0.6, 0.45);
        let params = HamiltonianParams { fd: FdOrder::new(2), include_nonlocal: true };
        let single = BlockHamiltonian::build(grid, &s, params);

        let s2 = crate::structures::supercell_z(&s, 2);
        let grid2 = Grid3::new(5, 5, 16, 0.6, 0.6, 0.45);
        let double = BlockHamiltonian::build(grid2, &s2, params);

        let n = single.dim();
        let h00 = single.h00_csr().to_dense();
        let h01 = single.h01_csr().to_dense();
        let h10 = h01.adjoint();
        let d00 = double.h00_csr().to_dense();
        let d01 = double.h01_csr().to_dense();

        let scale = h00.fro_norm();
        // Diagonal blocks of the supercell H00.
        assert!((&d00.block(0, 0, n, n) - &h00).fro_norm() < 1e-10 * scale);
        assert!((&d00.block(n, n, n, n) - &h00).fro_norm() < 1e-10 * scale);
        // Off-diagonal (internal boundary) blocks.
        assert!((&d00.block(0, n, n, n) - &h01).fro_norm() < 1e-10 * scale);
        assert!((&d00.block(n, 0, n, n) - &h10).fro_norm() < 1e-10 * scale);
        // Supercell coupling block: only its lower-left corner is populated.
        assert!((&d01.block(n, 0, n, n) - &h01).fro_norm() < 1e-10 * scale);
        assert!(d01.block(0, 0, n, n).fro_norm() < 1e-12 * scale);
        assert!(d01.block(0, n, n, n).fro_norm() < 1e-12 * scale);
        assert!(d01.block(n, n, n, n).fro_norm() < 1e-12 * scale);
    }

    /// One carbon atom mid-cell in a period of 1.5 cutoffs: the sphere
    /// reaches both neighbouring cells, so both of its images reach the
    /// home cell and `H₀₂ ≠ 0`.
    #[test]
    #[should_panic(expected = "couples beyond nearest-neighbour cells")]
    fn projector_spanning_more_than_one_period_is_refused() {
        let period = 1.5 * Element::C.pseudo().projector_cutoff;
        let s = AtomicStructure {
            name: "wide projector".into(),
            atoms: vec![Atom::new(Element::C, [1.5, 1.5, 0.5 * period])],
            lateral: (3.0, 3.0),
            period,
        };
        let grid = Grid3::new(6, 6, 11, 0.5, 0.5, period / 11.0);
        BlockHamiltonian::build(grid, &s, HamiltonianParams::default());
    }

    /// The shipped structures stay inside the nearest-neighbour form.
    #[test]
    fn shipped_structures_still_build() {
        use crate::structures::carbon_nanotube;
        for s in [bulk_al_100(1), carbon_nanotube(8, 0, 5.0), carbon_nanotube(6, 6, 5.0)] {
            let h = BlockHamiltonian::build(
                grid_for_structure(&s, 1.2),
                &s,
                HamiltonianParams::default(),
            );
            let straddling = h.h01().projectors().rank();
            assert!(straddling > 0, "{}: no projector straddles the boundary", s.name);
        }
    }

    /// The stored operator is the stencil, counted once: the two block views
    /// report its two shares.
    #[test]
    fn memory_is_the_stencil_counted_once() {
        let h = tiny_hamiltonian(true);
        assert_eq!(h.memory_bytes(), h.stencil().memory_bytes());
        assert_eq!(h.h00().memory_bytes() + h.h01().memory_bytes(), h.memory_bytes());
        // Shared row templates of f64 values and u32 offsets, a template id
        // and a diagonal per row: under half of complex CSR even on a cell
        // this small, where most rows sit near a wrapped boundary.
        let csr = h.h00_csr().storage_bytes() + h.h01_csr().storage_bytes();
        assert!(2 * h.memory_bytes() < csr, "{} vs {csr}", h.memory_bytes());
    }

    /// The u32 limit on points: 65 537·4 369·15 = u32::MAX points fit,
    /// 2 048·2 048·1 024 = 2³² do not.  Only the check runs — nothing is
    /// allocated.
    #[test]
    fn stencil_size_check_sits_at_the_u32_limit() {
        let at_limit = Grid3::isotropic(65_537, 4_369, 15, 1.0);
        assert_eq!(at_limit.npoints(), RealStencil::MAX_DIM);
        check_stencil_size(&at_limit);
        let past = Grid3::isotropic(2_048, 2_048, 1_024, 1.0);
        assert_eq!(past.npoints(), RealStencil::MAX_DIM + 1);
        let refused = std::panic::catch_unwind(|| check_stencil_size(&past));
        let message = refused.expect_err("past the limit");
        let message = message.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("past the real stencil's u32 limit of 4294967295"), "{message}");
    }

    /// `build` refuses a grid of 2³² points before it computes anything.
    #[test]
    #[should_panic(expected = "past the real stencil's u32 limit")]
    fn grid_past_the_u32_stencil_limit_is_refused() {
        let empty = AtomicStructure {
            name: "empty".into(),
            atoms: vec![],
            lateral: (2048.0, 2048.0),
            period: 1024.0,
        };
        let grid = Grid3::isotropic(2048, 2048, 1024, 1.0);
        BlockHamiltonian::build(grid, &empty, HamiltonianParams::default());
    }

    #[test]
    fn grid_for_structure_matches_extents() {
        let s = bulk_al_100(1);
        let g = grid_for_structure(&s, 0.4);
        assert!((g.lx() - s.lateral.0).abs() < 1e-9);
        assert!((g.lz() - s.period).abs() < 1e-9);
        assert!(g.hx <= 0.5 && g.hx >= 0.3);
    }
}

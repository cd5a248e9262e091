//! The overbridging-boundary-matching (OBM) / transfer-matrix baseline
//! (Fujimoto & Hirose 2003), the "conventional method" of the paper's
//! Figure 4 and Table 1.
//!
//! For the bulk QEP `[-λ⁻¹H₁₀ + (E-H₀₀) - λH₀₁]ψ = 0` write
//! `p = λ⁻¹ B† ψ_L`, `q = λ B ψ_F` where `B = H₀₁[L, F]` is the interface
//! coupling block and `F`/`L` are the lower/upper interface index sets.
//! With `G = (E - H₀₀)⁻¹` the full state is `ψ = G(R_F† p + R_L† q)` and the
//! interface amplitudes satisfy the `(|F|+|L|)`-dimensional generalized
//! eigenproblem
//!
//! ```text
//! ⎡ B†G_LF  B†G_LL ⎤         ⎡ I   0    ⎤
//! ⎢                ⎥  z  = λ ⎢          ⎥ z ,      z = [p; q].
//! ⎣   0       I    ⎦         ⎣ BG_FF BG_FL ⎦
//! ```
//!
//! The required columns of `G` (the first and last `Nx·Ny·N_f` columns in
//! the paper's language) are obtained iteratively, and the dense pencil is
//! solved with the generalized eigensolver of `cbs-linalg` (the stand-in for
//! LAPACK's `ZGGEV`).  The method is O(N³)-ish in time and O(N²) in memory,
//! which is exactly the behaviour the paper's Figure 4 contrasts against the
//! Sakurai-Sugiura approach.

use cbs_linalg::{generalized_eigen, CMatrix, CVector, Complex64};
use cbs_solver::{bicg, SolverOptions};
use cbs_sparse::{CsrMatrix, LinearOperator};

use crate::interface::Interface;

/// Options of the OBM solve.
#[derive(Clone, Copy, Debug)]
pub struct ObmConfig {
    /// Inner radius of the reported annulus (matches the SS `λ_min`).
    pub lambda_min: f64,
    /// Tolerance of the iterative Green-function column solves.
    pub green_tolerance: f64,
    /// Iteration cap of the Green-function column solves.
    pub green_max_iterations: usize,
}

impl Default for ObmConfig {
    fn default() -> Self {
        Self { lambda_min: 0.5, green_tolerance: 1e-10, green_max_iterations: 50_000 }
    }
}

/// Result of an OBM calculation at one energy.
#[derive(Clone, Debug)]
pub struct ObmResult {
    /// Bloch factors inside the annulus, sorted by modulus.
    pub lambdas: Vec<Complex64>,
    /// Full-cell eigenvectors reconstructed through the Green function
    /// (parallel to `lambdas`).
    pub eigenvectors: Vec<CVector>,
    /// Size of the dense generalized eigenproblem that was solved.
    pub pencil_size: usize,
    /// Peak memory estimate in bytes (dense pencil + stored Green columns),
    /// the quantity compared in the paper's Figure 4(b).
    pub memory_bytes: usize,
    /// Total iterations spent computing Green-function columns.
    pub green_iterations: usize,
    /// Seconds spent on the Green-function columns ("matrix inversion").
    pub green_seconds: f64,
    /// Seconds spent on the dense generalized eigenproblem.
    pub eig_seconds: f64,
}

/// The shifted operator `E - H₀₀` applied matrix-free.
struct EnergyShifted<'a> {
    h00: &'a dyn LinearOperator,
    energy: f64,
}

impl LinearOperator for EnergyShifted<'_> {
    fn nrows(&self) -> usize {
        self.h00.nrows()
    }
    fn ncols(&self) -> usize {
        self.h00.ncols()
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        self.h00.apply(x, y);
        let e = Complex64::real(self.energy);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = e * *xi - *yi;
        }
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        // (E - H00)† = E - H00 for Hermitian H00 and real E; keep the general
        // form anyway.
        self.h00.apply_adjoint(x, y);
        let e = Complex64::real(self.energy);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = e * *xi - *yi;
        }
    }
}

/// Solve the CBS eigenvalue problem at one energy with the OBM method.
///
/// `h00` is the on-cell block (matrix-free is fine), `h01` must be given in
/// CSR form because the interface extraction needs its sparsity pattern.
pub fn obm_solve(
    h00: &dyn LinearOperator,
    h01: &CsrMatrix,
    energy: f64,
    config: &ObmConfig,
) -> ObmResult {
    let n = h00.nrows();
    assert_eq!(h01.nrows(), n);
    assert_eq!(h01.ncols(), n);
    let iface = Interface::from_h01(h01);
    let (dl, df) = (iface.dim_l(), iface.dim_f());
    assert!(dl > 0 && df > 0, "coupling block is empty — no transport direction coupling");

    let shifted = EnergyShifted { h00, energy };
    let opts = SolverOptions {
        tolerance: config.green_tolerance,
        max_iterations: config.green_max_iterations,
        ..SolverOptions::default()
    };

    // --- Green-function columns at the interface indices. ---------------
    #[expect(
        clippy::disallowed_types,
        reason = "OBM phase timing for the Fig. 4 comparison; never fingerprinted"
    )]
    let t_green = std::time::Instant::now();
    let mut green_iterations = 0usize;
    let mut solve_columns = |indices: &[usize]| -> CMatrix {
        let mut cols = CMatrix::zeros(n, indices.len());
        for (c, &idx) in indices.iter().enumerate() {
            let e = CVector::unit(n, idx);
            let (x, hist) = bicg(&shifted, &e, &opts);
            green_iterations += hist.iterations();
            cols.set_column(c, &x);
        }
        cols
    };
    let g_cols_f = solve_columns(&iface.cols_f); // N x dF
    let g_cols_l = solve_columns(&iface.rows_l); // N x dL
    let green_seconds = t_green.elapsed().as_secs_f64();

    // Corner blocks of G.
    let restrict = |cols: &CMatrix, rows: &[usize]| -> CMatrix {
        CMatrix::from_fn(rows.len(), cols.ncols(), |r, c| cols[(rows[r], c)])
    };
    let g_ff = restrict(&g_cols_f, &iface.cols_f); // dF x dF
    let g_fl = restrict(&g_cols_l, &iface.cols_f); // dF x dL
    let g_lf = restrict(&g_cols_f, &iface.rows_l); // dL x dF
    let g_ll = restrict(&g_cols_l, &iface.rows_l); // dL x dL

    // --- Dense pencil assembly and solve. --------------------------------
    #[expect(
        clippy::disallowed_types,
        reason = "OBM phase timing for the Fig. 4 comparison; never fingerprinted"
    )]
    let t_eig = std::time::Instant::now();
    let b = &iface.coupling; // dL x dF
    let b_dag = b.adjoint(); // dF x dL
    let size = df + dl;
    let mut a_mat = CMatrix::zeros(size, size);
    let mut c_mat = CMatrix::zeros(size, size);
    // Row block 1 (dF): [B† G_LF, B† G_LL] = λ [I_F, 0]
    a_mat.set_block(0, 0, &b_dag.matmul(&g_lf));
    a_mat.set_block(0, df, &b_dag.matmul(&g_ll));
    c_mat.set_block(0, 0, &CMatrix::identity(df));
    // Row block 2 (dL): [0, I_L] = λ [B G_FF, B G_FL]
    a_mat.set_block(df, df, &CMatrix::identity(dl));
    c_mat.set_block(df, 0, &b.matmul(&g_ff));
    c_mat.set_block(df, df, &b.matmul(&g_fl));

    let pencil = generalized_eigen(&a_mat, &c_mat).expect("OBM pencil eigenproblem failed");
    let mut lambdas = Vec::new();
    let mut eigenvectors = Vec::new();
    for (lambda, z) in pencil.finite_pairs() {
        let r = lambda.abs();
        if r <= config.lambda_min || r >= 1.0 / config.lambda_min {
            continue;
        }
        // Reconstruct the full-cell state  ψ = Gcols_F p + Gcols_L q.
        let p: CVector = (0..df).map(|i| z[i]).collect();
        let q: CVector = (0..dl).map(|i| z[df + i]).collect();
        let mut psi = g_cols_f.matvec(&p);
        let psi_l = g_cols_l.matvec(&q);
        psi += &psi_l;
        let (psi, norm) = psi.normalized();
        if norm < 1e-14 {
            continue;
        }
        lambdas.push(lambda);
        eigenvectors.push(psi);
    }
    // Sort by modulus, then phase, for reproducible comparisons.
    let mut order: Vec<usize> = (0..lambdas.len()).collect();
    order.sort_by(|&i, &j| {
        (lambdas[i].abs(), lambdas[i].arg())
            .partial_cmp(&(lambdas[j].abs(), lambdas[j].arg()))
            .unwrap()
    });
    let lambdas: Vec<Complex64> = order.iter().map(|&i| lambdas[i]).collect();
    let eigenvectors: Vec<CVector> = order.iter().map(|&i| eigenvectors[i].clone()).collect();
    let eig_seconds = t_eig.elapsed().as_secs_f64();

    // Memory model: the two dense pencil matrices, the shift-invert work
    // matrix inside the generalized eigensolver, and the stored Green
    // columns.
    let cplx = std::mem::size_of::<Complex64>();
    let memory_bytes = 3 * size * size * cplx + 2 * n * (df + dl) * cplx / 2 * 2;

    ObmResult {
        lambdas,
        eigenvectors,
        pencil_size: size,
        memory_bytes,
        green_iterations,
        green_seconds,
        eig_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_core::{solve_qep_with, QepProblem, SsConfig};
    use cbs_dft::{BlockHamiltonian, HamiltonianParams};
    use cbs_grid::{FdOrder, Grid3};
    use cbs_parallel::RayonExecutor;
    use cbs_sparse::DenseOp;

    fn tiny_system() -> (BlockHamiltonian, f64) {
        use cbs_dft::{Atom, AtomicStructure, Element};
        let s = AtomicStructure {
            name: "tiny-chain".into(),
            atoms: vec![Atom::new(Element::C, [1.2, 1.2, 1.0])],
            lateral: (2.4, 2.4),
            period: 2.0,
        };
        let grid = Grid3::new(4, 4, 5, 0.6, 0.6, 0.4);
        let h = BlockHamiltonian::build(
            grid,
            &s,
            HamiltonianParams { fd: FdOrder::new(1), include_nonlocal: false },
        );
        (h, -0.3)
    }

    #[test]
    fn obm_matches_sakurai_sugiura_on_a_physical_hamiltonian() {
        let (h, energy) = tiny_system();
        let h00_csr = h.h00_csr();
        let h01_csr = h.h01_csr();
        let obm = obm_solve(&h00_csr, &h01_csr, energy, &ObmConfig::default());

        let op00 = DenseOp::new(h00_csr.to_dense());
        let op01 = DenseOp::new(h01_csr.to_dense());
        let qep = QepProblem::new(&op00, &op01, energy, h.period());
        // Cross-check through the threaded executor: the engine guarantees
        // results identical to the serial path, so this doubles as an
        // integration check of the fan-out.
        let ss = solve_qep_with(
            &qep,
            &SsConfig {
                n_int: 24,
                n_mm: 8,
                n_rh: 8,
                bicg_tolerance: 1e-12,
                residual_cutoff: 1e-5,
                ..SsConfig::paper()
            },
            &RayonExecutor,
        );

        // Every SS eigenvalue comfortably inside the annulus must be found by
        // OBM and vice versa.
        let close = |a: Complex64, b: Complex64| (a - b).abs() < 1e-5 * (1.0 + b.abs());
        let mut compared = 0;
        for p in &ss.eigenpairs {
            if p.lambda.abs() < 0.55 || p.lambda.abs() > 1.8 {
                continue;
            }
            assert!(
                obm.lambdas.iter().any(|&l| close(l, p.lambda)),
                "SS eigenvalue {:?} missing from OBM result {:?}",
                p.lambda,
                obm.lambdas
            );
            compared += 1;
        }
        for &l in &obm.lambdas {
            if l.abs() < 0.55 || l.abs() > 1.8 {
                continue;
            }
            assert!(
                ss.eigenpairs.iter().any(|p| close(p.lambda, l)),
                "OBM eigenvalue {l:?} missing from SS result"
            );
        }
        assert!(compared > 0, "no eigenvalues to compare");
    }

    #[test]
    fn obm_eigenvectors_solve_the_qep() {
        let (h, energy) = tiny_system();
        let h00_csr = h.h00_csr();
        let h01_csr = h.h01_csr();
        let obm = obm_solve(&h00_csr, &h01_csr, energy, &ObmConfig::default());
        assert!(!obm.lambdas.is_empty());
        let op00 = DenseOp::new(h00_csr.to_dense());
        let op01 = DenseOp::new(h01_csr.to_dense());
        let qep = QepProblem::new(&op00, &op01, energy, h.period());
        for (l, v) in obm.lambdas.iter().zip(&obm.eigenvectors) {
            // States very close to the contour can be slightly less accurate;
            // accept 1e-4 relative residual for this small grid.
            let r = qep.residual(*l, v);
            assert!(r < 1e-4, "λ = {l:?} residual {r}");
        }
        assert!(obm.pencil_size > 0);
        assert!(obm.memory_bytes > 0);
        assert!(obm.green_iterations > 0);
    }

    #[test]
    fn interface_size_matches_fd_order_for_kinetic_coupling() {
        let (h, _) = tiny_system();
        let iface = Interface::from_h01(&h.h01_csr());
        // Kinetic-only coupling with nf = 1: one plane of 4x4 points each side.
        assert_eq!(iface.dim_l(), 16);
        assert_eq!(iface.dim_f(), 16);
        assert_eq!(iface.problem_size(), 32);
    }
}

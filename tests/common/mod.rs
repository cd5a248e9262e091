//! Fixtures shared by the integration tests: the fig6 Al(100) system at the
//! bench resolution, the solver configuration every suite runs it under, the
//! coarse (8,0) nanotube, a random dense pencil, the checkpoint a killed
//! sweep leaves behind, the textbook diagonal ILU that `RealStencil::dilu`
//! is held to, and the textbook preconditioned dual BiCG that the split
//! route is held to.
//!
//! One definition on purpose.  The node count is pinned at 12.  With the
//! Laurent-centred moments, 8 nodes already find every pair of a 32-node
//! reference for each of 32 source-block seeds at four energies
//! (`tests/centred_moments.rs`), but the worst accepted residual there is
//! 1.6e-6, within a factor of 7 of the 1e-5 acceptance filter.  At 12 it
//! is 7e-9 for every seed, so no suite's pair count hangs on the
//! realization of the random source block, and — the Hamiltonian being
//! real — only 6 of the 12 nodes are solved.
#![allow(dead_code, reason = "each test crate uses its own subset")]

use rand::SeedableRng;

use cbs::core::SsConfig;
use cbs::dft::{
    bulk_al_100, carbon_nanotube, grid_for_structure, BlockHamiltonian, HamiltonianParams,
};
use cbs::linalg::{c64, CMatrix, CVector, Complex64};
use cbs::solver::{BicgResult, ConvergenceHistory, SolverOptions, StopReason};
use cbs::sparse::{LinearOperator, RealStencil, StencilDilu};
use cbs::sweep::SweepCheckpoint;

/// Quadrature nodes per circle of [`fig6_config`].
pub const FIG6_N_INT: usize = 12;

/// Nodes of [`fig6_config`] that are actually solved on the (real) fig6
/// system: the upper half-plane half of the ring.
pub const FIG6_SOLVED_NODES: usize = FIG6_N_INT / 2;

/// The fig6 Al(100) system at the bench resolution (343 grid points).
pub fn fig6_hamiltonian() -> BlockHamiltonian {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.5);
    BlockHamiltonian::build(
        grid,
        &s,
        HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true },
    )
}

/// A coarse (8,0) carbon nanotube (605 grid points, 32 atoms): the
/// projector-heavy counterpart of fig6.
pub fn cnt80_hamiltonian() -> BlockHamiltonian {
    let tube = carbon_nanotube(8, 0, 3.0);
    let grid = grid_for_structure(&tube, 1.6);
    BlockHamiltonian::build(
        grid,
        &tube,
        HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true },
    )
}

/// The fig6 solver configuration; suites override the policy fields with
/// struct-update syntax.
pub fn fig6_config() -> SsConfig {
    SsConfig { n_int: FIG6_N_INT, n_mm: 4, n_rh: 4, bicg_max_iterations: 400, ..SsConfig::small() }
}

/// The checkpoint a sweep killed after its first `k` records leaves behind.
/// The sweep saves after every record it pushes and the save renames
/// atomically, so a kill anywhere leaves a prefix of the finished sweep's
/// checkpoint.
pub fn killed_after(finished: &SweepCheckpoint, k: usize) -> SweepCheckpoint {
    SweepCheckpoint { records: finished.records[..k].to_vec(), ..finished.clone() }
}

/// Dense complex blocks of a QEP: a Hermitian `H₀₀` and a random `H₀₁`
/// scaled by 0.35.
pub fn random_blocks(n: usize, seed: u64) -> (CMatrix, CMatrix) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let a = CMatrix::random(n, n, &mut rng);
    let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
    let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
    (h00, h01)
}

/// The textbook diagonal ILU of the sparse part of `P(z)`, written from
/// the definition on the dense `A = E − H₀₀ − z·H₀₁ − z⁻¹·H₀₁†` of a
/// stencil's sparse rows (its projector terms take no part) with none of
/// the stencil's kernels: `M = (D̃+L)·D̃⁻¹·(D̃+U)`, `L` and `U` the strict
/// triangles of `A`, and `d̃ᵢ = aᵢᵢ − Σ_{j<i} aᵢⱼaⱼᵢ/d̃ⱼ`.  The reference
/// of `RealStencil::dilu`.
pub struct TextbookDilu {
    a: CMatrix,
    /// The pivots `d̃ᵢ`.
    pivots: Vec<Complex64>,
}

impl TextbookDilu {
    pub fn new(stencil: &RealStencil, energy: f64, z: Complex64) -> Self {
        let [b00, b01] = [stencil.h00(), stencil.h01()].map(|b| b.sparse_csr().to_dense());
        let n = stencil.dim();
        let a = CMatrix::from_fn(n, n, |i, j| {
            let e = if i == j { energy } else { 0.0 };
            c64(e, 0.0) - b00[(i, j)] - z * b01[(i, j)] - b01[(j, i)].conj() / z
        });
        let mut pivots: Vec<Complex64> = Vec::with_capacity(n);
        for i in 0..n {
            pivots.push((0..i).fold(a[(i, i)], |d, j| d - a[(i, j)] * a[(j, i)] / pivots[j]));
        }
        Self { a, pivots }
    }

    /// `M⁻¹r`, or `M⁻†r` when `adjoint`: `M† = (D̃*+L')·D̃*⁻¹·(D̃*+U')` is
    /// the same form over `A†`, whose strict triangles are `L' = U†` and
    /// `U' = L†`.  `(D̃+L)w = r` forward, then `(I + D̃⁻¹U)x = w` backward.
    pub fn solve(&self, adjoint: bool, r: &[Complex64]) -> Vec<Complex64> {
        let a = |i: usize, j: usize| if adjoint { self.a[(j, i)].conj() } else { self.a[(i, j)] };
        let d = |i: usize| if adjoint { self.pivots[i].conj() } else { self.pivots[i] };
        let n = r.len();
        let mut x = r.to_vec();
        for i in 0..n {
            x[i] = (0..i).fold(x[i], |s, j| s - a(i, j) * x[j]) / d(i);
        }
        for i in (0..n).rev() {
            let upper = (i + 1..n).fold(Complex64::ZERO, |s, j| s + a(i, j) * x[j]);
            x[i] -= upper / d(i);
        }
        x
    }

    /// The larger relative distance of `m`'s `M⁻¹R` and `M⁻†R` (its block
    /// sweeps over the `nvecs`-column slab `r`) from this oracle's, column
    /// by column.
    pub fn distance(&self, m: &StencilDilu<'_>, r: &[Complex64], nvecs: usize) -> f64 {
        let n = r.len() / nvecs;
        let mut worst = 0.0f64;
        for adjoint in [false, true] {
            let mut got = vec![c64(f64::NAN, f64::NAN); n * nvecs];
            if adjoint {
                m.solve_adjoint_block(r, &mut got, nvecs);
            } else {
                m.solve_block(r, &mut got, nvecs);
            }
            let want: Vec<Complex64> =
                r.chunks_exact(n).flat_map(|c| self.solve(adjoint, c)).collect();
            let diff: f64 = got.iter().zip(&want).map(|(g, w)| (*g - *w).norm_sqr()).sum();
            let norm: f64 = want.iter().map(|w| w.norm_sqr()).sum();
            let err = (diff / norm).sqrt();
            // A NaN from either side sticks.
            worst = if worst.is_nan() || err <= worst { worst } else { err };
        }
        worst
    }
}

/// The reference of the split route (`bicg_dual_block_precond` with a
/// `StencilDilu`): the textbook dual BiCG on `a` preconditioned by the
/// D-ILU's own sweeps, `M⁻¹` on the primal residuals and `M⁻†` on the dual
/// (Saad, Alg. 7.3, in the Templates' preconditioned form), for one
/// right-hand side `b` of both sides, through the scalar `apply` entry
/// points, from a zero start.  It stops once both recurrence residuals meet
/// the tolerance, or on a vanishing or non-finite `ρ` or `p̃†Ap`, and keeps
/// one history for the pair: the larger residual after each iteration,
/// converged only when both are.  In exact arithmetic it builds the split
/// route's iterates; the two stop on different residuals.
pub fn preconditioned_bicg(
    a: &dyn LinearOperator,
    m: &StencilDilu<'_>,
    b: &CVector,
    opts: &SolverOptions,
) -> BicgResult {
    let n = a.dim();
    let precondition = |r: &CVector, adjoint: bool| {
        let mut z = CVector::zeros(n);
        let solve =
            if adjoint { StencilDilu::solve_adjoint_block } else { StencilDilu::solve_block };
        solve(m, r.as_slice(), z.as_mut_slice(), 1);
        z
    };
    let breaks_down = |v: Complex64| !(v.re.is_finite() && v.im.is_finite()) || v.abs() < 1e-290;
    let (mut x, mut xt) = (CVector::zeros(n), CVector::zeros(n));
    let (mut r, mut rt) = (b.clone(), b.clone());
    let (mut p, mut pt) = (precondition(&r, false), precondition(&rt, true));
    let mut rho = rt.dot(&p);
    let (mut q, mut qt) = (CVector::zeros(n), CVector::zeros(n));
    let b_norm = b.norm().max(1e-300);
    let (mut res, mut res_dual) = (b.norm() / b_norm, b.norm() / b_norm);
    let mut history = vec![res.max(res_dual)];
    let converged = |res: f64, res_dual: f64| res <= opts.tolerance && res_dual <= opts.tolerance;
    let (mut stop, mut matvecs) = (StopReason::MaxIterations, 0);
    for _ in 0..opts.max_iterations {
        if converged(res, res_dual) {
            break;
        }
        if breaks_down(rho) {
            stop = StopReason::Breakdown;
            break;
        }
        a.apply(p.as_slice(), q.as_mut_slice());
        a.apply_adjoint(pt.as_slice(), qt.as_mut_slice());
        matvecs += 2;
        let denom = pt.dot(&q);
        if breaks_down(denom) {
            stop = StopReason::Breakdown;
            break;
        }
        let alpha = rho / denom;
        x.axpy(alpha, &p);
        xt.axpy(alpha.conj(), &pt);
        r.axpy(-alpha, &q);
        rt.axpy(-alpha.conj(), &qt);
        (res, res_dual) = (r.norm() / b_norm, rt.norm() / b_norm);
        history.push(res.max(res_dual));
        let (z, zt) = (precondition(&r, false), precondition(&rt, true));
        let rho_new = rt.dot(&z);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
            pt[i] = zt[i] + beta.conj() * pt[i];
        }
    }
    let stop_reason = if converged(res, res_dual) { StopReason::Converged } else { stop };
    let history = ConvergenceHistory { residuals: history, stop_reason, matvecs };
    BicgResult { x, dual_x: xt, history }
}

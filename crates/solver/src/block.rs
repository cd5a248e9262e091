//! The one dual-BiCG kernel: all right-hand sides of one shifted system
//! advanced in lockstep through **fused block matvecs**, optionally
//! preconditioned.
//!
//! The Sakurai-Sugiura contour solves are inherently blocked: every
//! quadrature node `z_j` owns `N_rh` independent systems `P(z_j) x = v_r`
//! that share the operator.  [`bicg_dual_block_precond`] keeps one BiCG
//! recurrence per column (its own `α`, `β`, `ρ`; Saad, *Iterative Methods
//! for Sparse Linear Systems*, Alg. 7.3, with the dual solution tracked
//! through the conjugated step sizes) and performs the primal and adjoint
//! matvecs of all still-active columns through a single
//! [`LinearOperator::apply_block`] traversal.  A single system is the
//! width-1 block ([`bicg_dual`](crate::bicg_dual)); no preconditioner is the
//! same loop with `z ≡ r`.
//!
//! Two contracts, both locked by this file's tests against a textbook
//! scalar recurrence kept as a `#[cfg(test)]` oracle:
//!
//! * **Bitwise column parity.** Because `apply_block` / `solve_block` are
//!   bit-identical to their column-by-column forms and each column carries
//!   an independent recurrence, every column's solution, residual history,
//!   stop reason and matvec count are those of a standalone solve of that
//!   column — deflation included (a converged column freezes at exactly the
//!   state the standalone solve would have returned).
//! * **Slot-stable deflation.** A converged (or broken-down, or externally
//!   stopped) column stops contributing work — it leaves the fused matvec —
//!   but keeps its slot in the result, so downstream reductions that walk
//!   the columns in order are independent of *when* each column converged.
//!
//! The real saving is operator traffic: the result reports `traversals`,
//! the number of operator storage walks performed (each block apply counts
//! one), which is roughly `2 · max_c iters_c` instead of `Σ_c matvecs_c`.

use cbs_linalg::{CVector, Complex64};
use cbs_sparse::{LinearOperator, Preconditioner};

use crate::bicg::BicgResult;
use crate::history::{ConvergenceHistory, SolverOptions, StopReason};

/// Result of a batched dual BiCG solve.
#[derive(Clone, Debug)]
pub struct BlockBicgResult {
    /// Per-column results in input order, each bit-identical to a
    /// standalone solve of that column (matvec counts included).
    pub columns: Vec<BicgResult>,
    /// Number of operator-storage traversals performed: every fused block
    /// apply (primal or adjoint, any number of active columns) counts the
    /// operator's [`traversal_weight`](LinearOperator::traversal_weight) —
    /// 1 for single-store operators, 3 for the matrix-free QEP operator
    /// that walks `H₀₀`/`H₀₁`/`H₀₁†`.
    pub traversals: usize,
}

impl BlockBicgResult {
    /// `true` when every column's primal and dual systems converged.
    pub fn all_converged(&self) -> bool {
        self.columns.iter().all(BicgResult::both_converged)
    }

    /// Total matvec-equivalents over the columns (what solving them one at
    /// a time would have applied).
    pub fn total_matvecs(&self) -> usize {
        self.columns.iter().map(|c| c.history.matvecs).sum()
    }
}

/// Per-column recurrence state.
struct Column {
    x: CVector,
    xt: CVector,
    r: CVector,
    rt: CVector,
    /// Preconditioned residuals `z = M⁻¹ r`, `z̃ = M⁻† r̃`.  Empty without a
    /// preconditioner: the recurrence then reads `r` / `r̃` in their place.
    z: CVector,
    zt: CVector,
    p: CVector,
    pt: CVector,
    q: CVector,
    qt: CVector,
    b_norm: f64,
    bt_norm: f64,
    res: f64,
    res_dual: f64,
    history: Vec<f64>,
    dual_history: Vec<f64>,
    rho: Complex64,
    matvecs: usize,
    stop: StopReason,
    active: bool,
}

/// A vanishing or non-finite inner product: the recurrence cannot divide by
/// it.  (`abs() < tiny` alone is `false` for NaN and would iterate on NaNs
/// to the iteration cap.)
fn breaks_down(v: Complex64) -> bool {
    !(v.re.is_finite() && v.im.is_finite()) || v.abs() < 1e-290
}

/// Pack one length-`n` vector per listed column into a column-major slab.
fn gather<'a>(slab: &mut Vec<Complex64>, vecs: impl Iterator<Item = &'a CVector>) {
    slab.clear();
    for v in vecs {
        slab.extend_from_slice(v.as_slice());
    }
}

/// Solve `A x_c = b_c` and `A† x̃_c = b̃_c` for all columns `c` in lockstep
/// with fused block matvecs, optionally preconditioned by `M ≈ A`.
///
/// With a preconditioner the search directions are built from the
/// preconditioned residuals `z = M⁻¹ r` and `z̃ = M⁻† r̃` (one blocked
/// [`Preconditioner::solve_block`] / [`solve_adjoint_block`] pass per
/// iteration over the live columns), while the *true* residuals `r`, `r̃`
/// drive the stopping test, so the convergence contract (relative residual
/// ≤ tolerance) does not depend on `m`.  The adjoint solve `M⁻†` on the dual
/// side is what preserves the paper's dual-circle trick under
/// preconditioning: with `M ≈ P(z)`, `M† ≈ P(z)† = P(1/z̄)`, the operator of
/// the paired inner-circle node.  With `m = None` the same loop runs with
/// `z ≡ r`, `z̃ ≡ r̃` by reference.
///
/// `seeds`, when present, supplies an optional warm-start pair `(x₀, x̃₀)`
/// per column: the initial residuals are `r₀ = b - A x₀`, `r̃₀ = b̃ - A† x̃₀`
/// (two operator applications, counted in the column's `matvecs` and fused
/// over the seeded columns); `None` entries start from zero at no extra
/// work.  A good seed — e.g. the solution of the same shifted system at a
/// neighbouring scan energy, whose operator differs only by `(E' - E) I` —
/// typically cuts the iteration count substantially.
///
/// `external_stop` is consulted once per lockstep iteration for every
/// still-active column; returning `true` ends that column with
/// [`StopReason::ExternalStop`] (the paper's "stop once half of the
/// quadrature points have converged" load-balancing rule).
///
/// [`solve_adjoint_block`]: Preconditioner::solve_adjoint_block
pub fn bicg_dual_block_precond<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: Option<&M>,
    b: &[CVector],
    b_dual: &[CVector],
    seeds: Option<&[Option<(&CVector, &CVector)>]>,
    opts: &SolverOptions,
    external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
) -> BlockBicgResult {
    let n = a.dim();
    if let Some(m) = m {
        assert_eq!(m.dim(), n, "preconditioner dimension mismatch");
    }
    let nvecs = b.len();
    assert_eq!(b_dual.len(), nvecs, "dual rhs count mismatch");
    if let Some(s) = seeds {
        assert_eq!(s.len(), nvecs, "seed count mismatch");
    }
    let weight = a.traversal_weight();
    let mut traversals = 0usize;
    // Column-major staging slabs of the fused applies.
    let mut slab_in: Vec<Complex64> = Vec::new();
    let mut slab_out: Vec<Complex64> = Vec::new();

    // --- Initial state: x₀ from the seed (or zero), r₀ = b. ---------------
    let mut cols: Vec<Column> = (0..nvecs)
        .map(|c| {
            assert_eq!(b[c].len(), n, "rhs length mismatch");
            assert_eq!(b_dual[c].len(), n, "dual rhs length mismatch");
            let (x, xt, matvecs) = match seeds.and_then(|s| s[c]) {
                None => (CVector::zeros(n), CVector::zeros(n), 0),
                Some((x0, xt0)) => {
                    assert_eq!(x0.len(), n, "primal seed length mismatch");
                    assert_eq!(xt0.len(), n, "dual seed length mismatch");
                    (x0.clone(), xt0.clone(), 2)
                }
            };
            Column {
                x,
                xt,
                r: b[c].clone(),
                rt: b_dual[c].clone(),
                z: CVector::zeros(0),
                zt: CVector::zeros(0),
                p: CVector::zeros(0),
                pt: CVector::zeros(0),
                q: CVector::zeros(n),
                qt: CVector::zeros(n),
                b_norm: b[c].norm().max(1e-300),
                bt_norm: b_dual[c].norm().max(1e-300),
                res: 0.0,
                res_dual: 0.0,
                history: Vec::new(),
                dual_history: Vec::new(),
                rho: Complex64::ZERO,
                matvecs,
                stop: StopReason::MaxIterations,
                active: true,
            }
        })
        .collect();

    // Seed residuals r₀ = b - A x₀ through two fused applies over the
    // seeded columns.
    let seeded: Vec<usize> =
        (0..nvecs).filter(|&c| seeds.is_some_and(|s| s[c].is_some())).collect();
    if !seeded.is_empty() {
        slab_out.resize(n * seeded.len(), Complex64::ZERO);
        gather(&mut slab_in, seeded.iter().map(|&c| &cols[c].x));
        a.apply_block(&slab_in, &mut slab_out, seeded.len());
        traversals += weight;
        for (&c, y) in seeded.iter().zip(slab_out.chunks_exact(n)) {
            for i in 0..n {
                cols[c].r[i] = b[c][i] - y[i];
            }
        }
        gather(&mut slab_in, seeded.iter().map(|&c| &cols[c].xt));
        a.apply_adjoint_block(&slab_in, &mut slab_out, seeded.len());
        traversals += weight;
        for (&c, y) in seeded.iter().zip(slab_out.chunks_exact(n)) {
            for i in 0..n {
                cols[c].rt[i] = b_dual[c][i] - y[i];
            }
        }
    }

    // z₀ = M⁻¹ r₀, z̃₀ = M⁻† r̃₀: one blocked pass over all columns.
    if let Some(m) = m {
        slab_out.resize(n * nvecs, Complex64::ZERO);
        gather(&mut slab_in, cols.iter().map(|col| &col.r));
        m.solve_block(&slab_in, &mut slab_out, nvecs);
        for (col, z) in cols.iter_mut().zip(slab_out.chunks_exact(n)) {
            col.z = CVector::from_vec(z.to_vec());
        }
        gather(&mut slab_in, cols.iter().map(|col| &col.rt));
        m.solve_adjoint_block(&slab_in, &mut slab_out, nvecs);
        for (col, zt) in cols.iter_mut().zip(slab_out.chunks_exact(n)) {
            col.zt = CVector::from_vec(zt.to_vec());
        }
    }
    for (c, col) in cols.iter_mut().enumerate() {
        let (z, zt) = if m.is_some() { (&col.z, &col.zt) } else { (&col.r, &col.rt) };
        (col.p, col.pt, col.rho) = (z.clone(), zt.clone(), col.rt.dot(z));
        col.res = col.r.norm() / col.b_norm;
        col.res_dual = col.rt.norm() / col.bt_norm;
        cbs_trace::record_iteration(Some(c), 0, col.res);
        if opts.record_history {
            col.history.push(col.res);
            col.dual_history.push(col.res_dual);
        }
    }

    // --- Lockstep iteration: per-column recurrences, fused applies. -------
    for iter in 0..opts.max_iterations {
        // Top-of-loop checks: convergence, external stop, ρ breakdown.  A
        // column that trips one freezes in place (deflation) but keeps its
        // slot.
        for col in cols.iter_mut().filter(|c| c.active) {
            if col.res <= opts.tolerance && col.res_dual <= opts.tolerance {
                col.stop = StopReason::Converged;
                col.active = false;
            } else if external_stop.is_some_and(|cb| cb(iter)) {
                col.stop = StopReason::ExternalStop;
                col.active = false;
            } else if breaks_down(col.rho) {
                col.stop = StopReason::Breakdown;
                col.active = false;
            }
        }
        let active: Vec<usize> = (0..nvecs).filter(|&c| cols[c].active).collect();
        if active.is_empty() {
            break;
        }

        // q = A p, q̃ = A† p̃ over the active columns only.
        slab_out.resize(n * active.len(), Complex64::ZERO);
        gather(&mut slab_in, active.iter().map(|&c| &cols[c].p));
        a.apply_block(&slab_in, &mut slab_out, active.len());
        traversals += weight;
        for (&c, q) in active.iter().zip(slab_out.chunks_exact(n)) {
            cols[c].q.as_mut_slice().copy_from_slice(q);
        }
        gather(&mut slab_in, active.iter().map(|&c| &cols[c].pt));
        a.apply_adjoint_block(&slab_in, &mut slab_out, active.len());
        traversals += weight;
        for (&c, qt) in active.iter().zip(slab_out.chunks_exact(n)) {
            cols[c].qt.as_mut_slice().copy_from_slice(qt);
        }

        // Solution and residual updates, per column.
        for &c in &active {
            let col = &mut cols[c];
            col.matvecs += 2;
            let denom = col.pt.dot(&col.q);
            if breaks_down(denom) {
                col.stop = StopReason::Breakdown;
                col.active = false;
                continue;
            }
            let alpha = col.rho / denom;
            col.x.axpy(alpha, &col.p);
            col.xt.axpy(alpha.conj(), &col.pt);
            col.r.axpy(-alpha, &col.q);
            col.rt.axpy(-alpha.conj(), &col.qt);
            col.res = col.r.norm() / col.b_norm;
            col.res_dual = col.rt.norm() / col.bt_norm;
            cbs_trace::record_iteration(Some(c), iter + 1, col.res);
            if opts.record_history {
                col.history.push(col.res);
                col.dual_history.push(col.res_dual);
            }
        }

        // The columns that survived the breakdown check refresh z, z̃ in
        // one blocked preconditioner pass (the factor streams once per
        // iteration, not once per column), then their search directions.
        let live: Vec<usize> = active.into_iter().filter(|&c| cols[c].active).collect();
        if let (Some(m), false) = (m, live.is_empty()) {
            slab_out.resize(n * live.len(), Complex64::ZERO);
            gather(&mut slab_in, live.iter().map(|&c| &cols[c].r));
            m.solve_block(&slab_in, &mut slab_out, live.len());
            for (&c, z) in live.iter().zip(slab_out.chunks_exact(n)) {
                cols[c].z.as_mut_slice().copy_from_slice(z);
            }
            gather(&mut slab_in, live.iter().map(|&c| &cols[c].rt));
            m.solve_adjoint_block(&slab_in, &mut slab_out, live.len());
            for (&c, zt) in live.iter().zip(slab_out.chunks_exact(n)) {
                cols[c].zt.as_mut_slice().copy_from_slice(zt);
            }
        }
        for &c in &live {
            let Column { r, rt, z, zt, p, pt, rho, .. } = &mut cols[c];
            let (z, zt): (&CVector, &CVector) = if m.is_some() { (&*z, &*zt) } else { (&*r, &*rt) };
            let rho_new = rt.dot(z);
            let beta = rho_new / *rho;
            *rho = rho_new;
            // p = z + β p ; p̃ = z̃ + conj(β) p̃
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
                pt[i] = zt[i] + beta.conj() * pt[i];
            }
        }
    }

    // --- Epilogue, per column. --------------------------------------------
    let columns = cols
        .into_iter()
        .map(|mut col| {
            let primal_conv = col.res <= opts.tolerance;
            let dual_conv = col.res_dual <= opts.tolerance;
            if !opts.record_history {
                col.history.push(col.res);
                col.dual_history.push(col.res_dual);
            }
            BicgResult {
                x: col.x,
                dual_x: col.xt,
                history: ConvergenceHistory {
                    residuals: col.history,
                    stop_reason: if primal_conv { StopReason::Converged } else { col.stop },
                    matvecs: col.matvecs,
                },
                dual_history: ConvergenceHistory {
                    residuals: col.dual_history,
                    stop_reason: if dual_conv { StopReason::Converged } else { col.stop },
                    matvecs: col.matvecs,
                },
            }
        })
        .collect();
    BlockBicgResult { columns, traversals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicg::bicg_dual;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::{CooBuilder, CsrMatrix, DenseOp, Ilu0};
    use rand::SeedableRng;

    /// The reference the kernel is held to, column by column and bit for
    /// bit: the textbook single-vector dual BiCG (Saad Alg. 7.3; the
    /// Templates' preconditioned form), written against the *scalar*
    /// `apply` / `solve` entry points.  Test-only — production code has the
    /// one block kernel above.
    fn scalar_oracle<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
        a: &A,
        m: Option<&M>,
        b: &CVector,
        b_dual: &CVector,
        seed: Option<(&CVector, &CVector)>,
        opts: &SolverOptions,
        external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
    ) -> BicgResult {
        let n = a.dim();
        let mut matvecs = 0usize;
        let (mut x, mut xt, mut r, mut rt) = match seed {
            None => (CVector::zeros(n), CVector::zeros(n), b.clone(), b_dual.clone()),
            Some((x0, xt0)) => {
                let mut r = CVector::zeros(n);
                let mut rt = CVector::zeros(n);
                a.apply(x0.as_slice(), r.as_mut_slice());
                a.apply_adjoint(xt0.as_slice(), rt.as_mut_slice());
                matvecs = 2;
                for i in 0..n {
                    r[i] = b[i] - r[i];
                    rt[i] = b_dual[i] - rt[i];
                }
                (x0.clone(), xt0.clone(), r, rt)
            }
        };
        let precondition = |r: &CVector, rt: &CVector| match m {
            None => (r.clone(), rt.clone()),
            Some(m) => {
                let (mut z, mut zt) = (CVector::zeros(n), CVector::zeros(n));
                m.solve(r.as_slice(), z.as_mut_slice());
                m.solve_adjoint(rt.as_slice(), zt.as_mut_slice());
                (z, zt)
            }
        };
        let (mut z, mut zt) = precondition(&r, &rt);
        let mut p = z.clone();
        let mut pt = zt.clone();
        let b_norm = b.norm().max(1e-300);
        let bt_norm = b_dual.norm().max(1e-300);
        let mut res = r.norm() / b_norm;
        let mut res_dual = rt.norm() / bt_norm;
        let mut history = vec![res];
        let mut dual_history = vec![res_dual];
        let mut q = CVector::zeros(n);
        let mut qt = CVector::zeros(n);
        let mut rho = rt.dot(&z);
        let mut stop = StopReason::MaxIterations;

        for iter in 0..opts.max_iterations {
            if res <= opts.tolerance && res_dual <= opts.tolerance {
                stop = StopReason::Converged;
                break;
            }
            if external_stop.is_some_and(|cb| cb(iter)) {
                stop = StopReason::ExternalStop;
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
            res = r.norm() / b_norm;
            res_dual = rt.norm() / bt_norm;
            history.push(res);
            dual_history.push(res_dual);
            (z, zt) = precondition(&r, &rt);
            let rho_new = rt.dot(&z);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
                pt[i] = zt[i] + beta.conj() * pt[i];
            }
        }
        let primal_conv = res <= opts.tolerance;
        let dual_conv = res_dual <= opts.tolerance;
        if primal_conv && dual_conv {
            stop = StopReason::Converged;
        }
        BicgResult {
            x,
            dual_x: xt,
            history: ConvergenceHistory {
                residuals: history,
                stop_reason: if primal_conv { StopReason::Converged } else { stop },
                matvecs,
            },
            dual_history: ConvergenceHistory {
                residuals: dual_history,
                stop_reason: if dual_conv { StopReason::Converged } else { stop },
                matvecs,
            },
        }
    }

    /// The unpreconditioned kernel call (`M` needs a type even when `None`).
    fn block_plain<A: LinearOperator + ?Sized>(
        a: &A,
        b: &[CVector],
        b_dual: &[CVector],
        seeds: Option<&[Option<(&CVector, &CVector)>]>,
        opts: &SolverOptions,
        external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
    ) -> BlockBicgResult {
        bicg_dual_block_precond(a, None::<&Ilu0>, b, b_dual, seeds, opts, external_stop)
    }

    fn random_diag_dominant(n: usize, seed: u64) -> CMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = CMatrix::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += c64(n as f64, 0.5);
        }
        a
    }

    fn shifted_laplacian(n: usize, shift: Complex64) -> CsrMatrix {
        let mut bld = CooBuilder::new(n, n);
        for i in 0..n {
            bld.push(i, i, c64(3.0, 0.0) - shift);
            bld.push(i, (i + 1) % n, c64(-1.0, 0.1));
            bld.push(i, (i + n - 1) % n, c64(-0.9, -0.2));
        }
        bld.build()
    }

    fn rhs_block(n: usize, nvecs: usize, seed: u64) -> Vec<CVector> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..nvecs).map(|_| CVector::random(n, &mut rng)).collect()
    }

    fn assert_bitwise_eq(a: &BicgResult, b: &BicgResult) {
        assert_eq!(a.x, b.x, "primal solutions differ");
        assert_eq!(a.dual_x, b.dual_x, "dual solutions differ");
        assert_eq!(a.history.residuals, b.history.residuals);
        assert_eq!(a.history.stop_reason, b.history.stop_reason);
        assert_eq!(a.history.matvecs, b.history.matvecs);
        assert_eq!(a.dual_history.residuals, b.dual_history.residuals);
        assert_eq!(a.dual_history.stop_reason, b.dual_history.stop_reason);
    }

    #[test]
    fn cold_block_is_bitwise_the_oracle_with_deflating_columns() {
        let n = 30;
        let op = DenseOp::new(random_diag_dominant(n, 301));
        let mut b = rhs_block(n, 4, 302);
        // A zero right-hand side converges before the first iteration: it
        // deflates at once while its neighbours keep iterating.
        b[2] = CVector::zeros(n);
        let bd = rhs_block(n, 4, 303);
        let opts = SolverOptions::default().with_tolerance(1e-11);
        let block = block_plain(&op, &b, &bd, None, &opts, None);
        for (c, col) in block.columns.iter().enumerate() {
            let single = scalar_oracle(&op, None::<&Ilu0>, &b[c], &bd[c], None, &opts, None);
            assert_bitwise_eq(col, &single);
        }
        assert!(block.columns.iter().enumerate().all(|(c, col)| c == 2 || col.both_converged()));
        let iters: Vec<usize> = block.columns.iter().map(|c| c.history.iterations()).collect();
        assert!(iters.iter().any(|&i| i != iters[0]), "no column deflated early: {iters:?}");
        // The fused traversal count is bounded by the slowest column.
        let max_matvecs = block.columns.iter().map(|c| c.history.matvecs).max().unwrap();
        assert!(block.traversals <= max_matvecs + 2);
        assert!(block.traversals < block.total_matvecs());
    }

    #[test]
    fn width_one_block_is_the_scalar_solver() {
        let n = 25;
        let op = DenseOp::new(random_diag_dominant(n, 216));
        let b = rhs_block(n, 2, 217);
        let opts = SolverOptions::default();
        let oracle = scalar_oracle(&op, None::<&Ilu0>, &b[0], &b[1], None, &opts, None);
        assert_bitwise_eq(&bicg_dual(&op, &b[0], &b[1], &opts, None), &oracle);
        // Unrecorded histories keep just the final residual.
        let quiet = SolverOptions { record_history: false, ..opts };
        let last = bicg_dual(&op, &b[0], &b[1], &quiet, None);
        assert_eq!(last.x, oracle.x);
        assert_eq!(last.history.residuals, [oracle.history.final_residual()]);

        let a = shifted_laplacian(n, c64(0.2, 0.5));
        let ilu = Ilu0::from_csr(&a);
        let pre = bicg_dual_block_precond(&a, Some(&ilu), &b[..1], &b[1..], None, &opts, None);
        let oracle = scalar_oracle(&a, Some(&ilu), &b[0], &b[1], None, &opts, None);
        assert_bitwise_eq(&pre.columns[0], &oracle);
    }

    #[test]
    fn seeded_block_is_bitwise_the_oracle_and_a_good_seed_cuts_iterations() {
        let n = 24;
        let a = random_diag_dominant(n, 304);
        let op = DenseOp::new(a.clone());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(305);
        let x_true = CVector::random(n, &mut rng);
        let b = vec![CVector::random(n, &mut rng), a.matvec(&x_true), a.matvec(&x_true)];
        let opts = SolverOptions::default().with_tolerance(1e-11);
        let cold = block_plain(&op, &b, &b, None, &opts, None);
        // Mixed seeding: column 0 cold, column 1 from its own exact
        // solution, column 2 from a perturbed one (a stand-in for the
        // previous scan energy's solution in a sweep).
        let mut near = x_true.clone();
        near.axpy(c64(1e-4, 0.0), &CVector::random(n, &mut rng));
        let exact = &cold.columns[1];
        let seeds: Vec<Option<(&CVector, &CVector)>> =
            vec![None, Some((&exact.x, &exact.dual_x)), Some((&near, &cold.columns[2].dual_x))];
        let warm = block_plain(&op, &b, &b, Some(&seeds), &opts, None);
        for (c, col) in warm.columns.iter().enumerate() {
            let single = scalar_oracle(&op, None::<&Ilu0>, &b[c], &b[c], seeds[c], &opts, None);
            assert_bitwise_eq(col, &single);
        }
        assert_bitwise_eq(&warm.columns[0], &cold.columns[0]);
        // The exactly-seeded column converges without iterating; its two
        // seed-residual applications are accounted for.
        assert_eq!(warm.columns[1].history.iterations(), 0);
        assert_eq!(warm.columns[1].history.matvecs, 2);
        assert!(warm.columns[2].both_converged());
        assert!(warm.columns[2].history.iterations() < cold.columns[2].history.iterations());
        assert!((&warm.columns[2].x - &x_true).norm() / x_true.norm() < 1e-8);
    }

    #[test]
    fn externally_stopped_block_is_bitwise_the_oracle() {
        let n = 26;
        let op = DenseOp::new(random_diag_dominant(n, 306));
        let b = rhs_block(n, 3, 307);
        let opts = SolverOptions::default().with_tolerance(1e-14);
        let stop = |iter: usize| iter >= 4;
        let block = block_plain(&op, &b, &b, None, &opts, Some(&stop));
        for (c, col) in block.columns.iter().enumerate() {
            let single = scalar_oracle(&op, None::<&Ilu0>, &b[c], &b[c], None, &opts, Some(&stop));
            assert_bitwise_eq(col, &single);
            assert_eq!(col.history.stop_reason, StopReason::ExternalStop);
            assert!(col.history.iterations() <= 5);
        }
    }

    #[test]
    fn preconditioned_block_is_bitwise_the_oracle_and_ilu_cuts_iterations() {
        let n = 80;
        let a = shifted_laplacian(n, c64(0.15, 0.35));
        let ilu = Ilu0::from_csr(&a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(311);
        let x_true: Vec<CVector> = (0..4).map(|_| CVector::random(n, &mut rng)).collect();
        let b: Vec<CVector> = x_true.iter().map(|x| a.matvec(x)).collect();
        let bd: Vec<CVector> = x_true.iter().map(|x| a.matvec_adjoint(x)).collect();
        let opts = SolverOptions::default().with_tolerance(1e-11);

        let plain = block_plain(&a, &b, &bd, None, &opts, None);
        let cold = bicg_dual_block_precond(&a, Some(&ilu), &b, &bd, None, &opts, None);
        assert!(plain.all_converged() && cold.all_converged());
        for (c, (pre, plain)) in cold.columns.iter().zip(&plain.columns).enumerate() {
            assert!(
                pre.history.iterations() < plain.history.iterations(),
                "column {c}: preconditioned {} vs plain {} iterations",
                pre.history.iterations(),
                plain.history.iterations()
            );
            // Both the primal and the dual solutions solve their true systems.
            assert!((&pre.x - &x_true[c]).norm() / x_true[c].norm() < 1e-7);
            assert!((&pre.dual_x - &x_true[c]).norm() / x_true[c].norm() < 1e-7);
        }

        // Mixed seeding exercises the seeded preconditioned start.
        let donor = &cold.columns[2];
        let seeds: Vec<Option<(&CVector, &CVector)>> =
            vec![None, None, Some((&donor.x, &donor.dual_x)), None];
        let warm = bicg_dual_block_precond(&a, Some(&ilu), &b, &bd, Some(&seeds), &opts, None);
        for (c, col) in warm.columns.iter().enumerate() {
            let single = scalar_oracle(&a, Some(&ilu), &b[c], &bd[c], seeds[c], &opts, None);
            assert_bitwise_eq(col, &single);
        }
        assert_eq!(warm.columns[2].history.iterations(), 0);
        assert_eq!(warm.columns[2].history.matvecs, 2);
        // The block path still fuses matvecs.
        assert!(cold.traversals < cold.total_matvecs());
    }

    /// Passes `inner` through, except that the `poisoned` column of its
    /// second primal block apply comes back NaN.
    struct NanOnSecondApply<'a> {
        inner: &'a CsrMatrix,
        poisoned: usize,
        applies: std::sync::atomic::AtomicUsize,
    }

    impl LinearOperator for NanOnSecondApply<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.apply_block(x, y, 1);
        }
        fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.inner.apply_adjoint(x, y);
        }
        fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
            self.inner.apply_block(x, y, nvecs);
            if self.applies.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                let n = self.nrows();
                y[self.poisoned * n..(self.poisoned + 1) * n].fill(c64(f64::NAN, f64::NAN));
            }
        }
    }

    #[test]
    fn non_finite_inner_product_is_a_breakdown_with_and_without_preconditioner() {
        let n = 40;
        let a = shifted_laplacian(n, c64(0.15, 0.35));
        let ilu = Ilu0::from_csr(&a);
        let opts = SolverOptions::default().with_tolerance(1e-11).with_max_iterations(60);
        for (width, poisoned) in [(1usize, 0usize), (4, 1)] {
            let b = rhs_block(n, width, 317);
            for m in [None, Some(&ilu)] {
                let clean = bicg_dual_block_precond(&a, m, &b, &b, None, &opts, None);
                let faulty = NanOnSecondApply { inner: &a, poisoned, applies: 0.into() };
                let out = bicg_dual_block_precond(&faulty, m, &b, &b, None, &opts, None);
                for (c, (col, clean)) in out.columns.iter().zip(&clean.columns).enumerate() {
                    if c == poisoned {
                        let label = format!("width {width}, precond {}", m.is_some());
                        assert_eq!(col.history.stop_reason, StopReason::Breakdown, "{label}");
                        assert_eq!(col.dual_history.stop_reason, StopReason::Breakdown, "{label}");
                        assert!(col.history.iterations() <= 2, "{label}: iterated on NaNs");
                    } else {
                        assert_bitwise_eq(col, clean);
                    }
                }
            }
        }
    }

    #[test]
    fn traversal_count_is_nvecs_fold_smaller_at_fixed_iterations() {
        // With a tolerance no column can reach, every column runs exactly
        // `max_iterations` lockstep steps: the block performs
        // `2 · max_iterations` traversals where one-at-a-time solves would
        // perform `nvecs · 2 · max_iterations`.
        let n = 20;
        let nvecs = 5;
        let op = DenseOp::new(random_diag_dominant(n, 308));
        let b = rhs_block(n, nvecs, 309);
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 12, record_history: false };
        let block = block_plain(&op, &b, &b, None, &opts, None);
        assert_eq!(block.traversals, 2 * 12);
        assert_eq!(block.total_matvecs(), nvecs * block.traversals);
    }

    #[test]
    fn traversal_weight_scales_the_traversal_count() {
        // A weight-3 wrapper (stand-in for the matrix-free QEP operator)
        // must report 3x the traversals of the same solve on the plain
        // operator, with identical matvec counts.
        struct Weighted<'a>(&'a DenseOp);
        impl cbs_sparse::LinearOperator for Weighted<'_> {
            fn nrows(&self) -> usize {
                self.0.nrows()
            }
            fn ncols(&self) -> usize {
                self.0.ncols()
            }
            fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
                self.0.apply(x, y);
            }
            fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
                self.0.apply_adjoint(x, y);
            }
            fn traversal_weight(&self) -> usize {
                3
            }
        }
        let op = DenseOp::new(random_diag_dominant(16, 315));
        let b = rhs_block(16, 3, 316);
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 7, record_history: false };
        let plain = block_plain(&op, &b, &b, None, &opts, None);
        let weighted = block_plain(&Weighted(&op), &b, &b, None, &opts, None);
        assert_eq!(plain.traversals, 2 * 7);
        assert_eq!(weighted.traversals, 3 * 2 * 7);
        assert_eq!(plain.total_matvecs(), weighted.total_matvecs());
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let op = DenseOp::new(random_diag_dominant(8, 310));
        let out = block_plain(&op, &[], &[], None, &SolverOptions::default(), None);
        assert!(out.columns.is_empty());
        assert_eq!(out.traversals, 0);
    }
}

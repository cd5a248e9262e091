//! Batched dual BiCG: all right-hand sides of one shifted system advanced
//! in lockstep through **fused block matvecs**.
//!
//! The Sakurai-Sugiura contour solves are inherently blocked: every
//! quadrature node `z_j` owns `N_rh` independent systems `P(z_j) x = v_r`
//! that share the operator.  Solving them one at a time re-reads the sparse
//! operator storage `N_rh` times per iteration set; [`bicg_dual_block`]
//! instead keeps one BiCG recurrence per column (its own `α`, `β`, `ρ`)
//! and performs the primal and adjoint matvecs of all still-active columns
//! through a single [`LinearOperator::apply_block`] traversal.
//!
//! Two contracts make the block path freely substitutable for the
//! per-column one:
//!
//! * **Bitwise column parity.** Because `apply_block` is bit-identical to
//!   column-by-column `apply` and each column carries an independent
//!   recurrence, every column's solution, residual history, stop reason and
//!   matvec count are **bit-identical** to a standalone
//!   [`bicg_dual_seeded`](crate::bicg_dual_seeded) call on that column —
//!   deflation included (a converged column freezes at exactly the state
//!   the standalone solve would have returned).
//! * **Slot-stable deflation.** A converged (or broken-down, or externally
//!   stopped) column stops contributing work — it leaves the fused matvec —
//!   but keeps its slot in the result, so downstream reductions that walk
//!   the columns in order are independent of *when* each column converged.
//!
//! The real saving is operator traffic: the result reports `traversals`,
//! the number of operator storage walks performed (each block apply counts
//! one), which drops from `Σ_c matvecs_c` to roughly `2 · max_c iters_c`.

use cbs_linalg::{CVector, Complex64};
use cbs_sparse::{LinearOperator, Preconditioner};

use crate::bicg::BicgResult;
use crate::history::{ConvergenceHistory, SolverOptions, StopReason};

/// Result of a batched dual BiCG solve.
#[derive(Clone, Debug)]
pub struct BlockBicgResult {
    /// Per-column results in input order, each bit-identical to a
    /// standalone [`bicg_dual_seeded`](crate::bicg_dual_seeded) call on
    /// that column (matvec counts included).
    pub columns: Vec<BicgResult>,
    /// Number of operator-storage traversals performed: every fused block
    /// apply (primal or adjoint, any number of active columns) counts the
    /// operator's [`traversal_weight`](LinearOperator::traversal_weight) —
    /// 1 for single-store operators, 3 for the matrix-free QEP operator
    /// that walks `H₀₀`/`H₀₁`/`H₀₁†`.  The per-column path would have
    /// performed `Σ_c matvecs_c` weighted applies.
    pub traversals: usize,
}

impl BlockBicgResult {
    /// `true` when every column's primal and dual systems converged.
    pub fn all_converged(&self) -> bool {
        self.columns.iter().all(BicgResult::both_converged)
    }

    /// Total matvec-equivalents over the columns (what the per-column path
    /// would have reported).
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

/// Solve `A x_c = b_c` and `A† x̃_c = b̃_c` for all columns `c` in lockstep
/// with fused block matvecs.
///
/// `seeds`, when present, supplies an optional warm-start pair `(x₀, x̃₀)`
/// per column (same semantics as [`bicg_dual_seeded`](crate::bicg_dual_seeded);
/// `None` entries run cold, and the two seed-residual applications are
/// fused over the seeded columns).  `external_stop` is consulted once per
/// lockstep iteration for every still-active column, matching the
/// per-column solver's behaviour because all columns share the iteration
/// counter.
pub fn bicg_dual_block<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[CVector],
    b_dual: &[CVector],
    seeds: Option<&[Option<(&CVector, &CVector)>]>,
    opts: &SolverOptions,
    external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
) -> BlockBicgResult {
    let n = a.dim();
    let nvecs = b.len();
    assert_eq!(b_dual.len(), nvecs, "dual rhs count mismatch");
    if let Some(s) = seeds {
        assert_eq!(s.len(), nvecs, "seed count mismatch");
    }
    let weight = a.traversal_weight();
    let mut traversals = 0usize;

    // --- Initial state, with the seed residuals r₀ = b - A x₀ computed
    // through two fused block applies over the seeded columns. ------------
    let seeded: Vec<usize> =
        (0..nvecs).filter(|&c| seeds.is_some_and(|s| s[c].is_some())).collect();
    let mut seed_r: Vec<CVector> = Vec::new();
    let mut seed_rt: Vec<CVector> = Vec::new();
    if !seeded.is_empty() {
        let s = seeds.expect("seeded columns imply a seed table");
        let mut x_slab = vec![Complex64::ZERO; n * seeded.len()];
        let mut y_slab = vec![Complex64::ZERO; n * seeded.len()];
        for (slot, &c) in seeded.iter().enumerate() {
            let (x0, _) = s[c].expect("listed as seeded");
            assert_eq!(x0.len(), n, "primal seed length mismatch");
            x_slab[slot * n..(slot + 1) * n].copy_from_slice(x0.as_slice());
        }
        a.apply_block(&x_slab, &mut y_slab, seeded.len());
        traversals += weight;
        seed_r = seeded
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let mut r = CVector::zeros(n);
                for i in 0..n {
                    r[i] = b[c][i] - y_slab[slot * n + i];
                }
                r
            })
            .collect();
        for (slot, &c) in seeded.iter().enumerate() {
            let (_, xt0) = s[c].expect("listed as seeded");
            assert_eq!(xt0.len(), n, "dual seed length mismatch");
            x_slab[slot * n..(slot + 1) * n].copy_from_slice(xt0.as_slice());
        }
        a.apply_adjoint_block(&x_slab, &mut y_slab, seeded.len());
        traversals += weight;
        seed_rt = seeded
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let mut rt = CVector::zeros(n);
                for i in 0..n {
                    rt[i] = b_dual[c][i] - y_slab[slot * n + i];
                }
                rt
            })
            .collect();
    }

    let mut cols: Vec<Column> = (0..nvecs)
        .map(|c| {
            assert_eq!(b[c].len(), n, "rhs length mismatch");
            assert_eq!(b_dual[c].len(), n, "dual rhs length mismatch");
            let seed = seeds.and_then(|s| s[c]);
            let (x, xt, r, rt, matvecs) = match seed {
                None => (CVector::zeros(n), CVector::zeros(n), b[c].clone(), b_dual[c].clone(), 0),
                Some((x0, xt0)) => {
                    let slot = seeded.iter().position(|&s| s == c).expect("seeded slot");
                    (x0.clone(), xt0.clone(), seed_r[slot].clone(), seed_rt[slot].clone(), 2)
                }
            };
            let p = r.clone();
            let pt = rt.clone();
            let b_norm = b[c].norm().max(1e-300);
            let bt_norm = b_dual[c].norm().max(1e-300);
            let res = r.norm() / b_norm;
            let res_dual = rt.norm() / bt_norm;
            cbs_trace::record_iteration(Some(c), 0, res);
            let mut history = Vec::new();
            let mut dual_history = Vec::new();
            if opts.record_history {
                history.push(res);
                dual_history.push(res_dual);
            }
            let rho = rt.dot(&r);
            Column {
                x,
                xt,
                r,
                rt,
                p,
                pt,
                q: CVector::zeros(n),
                qt: CVector::zeros(n),
                b_norm,
                bt_norm,
                res,
                res_dual,
                history,
                dual_history,
                rho,
                matvecs,
                stop: StopReason::MaxIterations,
                active: true,
            }
        })
        .collect();

    // --- Lockstep iteration: per-column recurrences, fused matvecs. -------
    let mut p_slab: Vec<Complex64> = Vec::new();
    let mut q_slab: Vec<Complex64> = Vec::new();
    for iter in 0..opts.max_iterations {
        // Top-of-loop checks, in the exact order of the per-column solver:
        // convergence, external stop, ρ breakdown.  A column that trips one
        // freezes in place (deflation) but keeps its slot.
        for col in cols.iter_mut().filter(|c| c.active) {
            if col.res <= opts.tolerance && col.res_dual <= opts.tolerance {
                col.stop = StopReason::Converged;
                col.active = false;
            } else if external_stop.is_some_and(|cb| cb(iter)) {
                col.stop = StopReason::ExternalStop;
                col.active = false;
            } else if col.rho.abs() < 1e-290 {
                col.stop = StopReason::Breakdown;
                col.active = false;
            }
        }
        let active: Vec<usize> = (0..nvecs).filter(|&c| cols[c].active).collect();
        if active.is_empty() {
            break;
        }

        // Fused matvecs over the active columns only.
        let na = active.len();
        p_slab.clear();
        p_slab.resize(n * na, Complex64::ZERO);
        q_slab.clear();
        q_slab.resize(n * na, Complex64::ZERO);
        for (slot, &c) in active.iter().enumerate() {
            p_slab[slot * n..(slot + 1) * n].copy_from_slice(cols[c].p.as_slice());
        }
        a.apply_block(&p_slab, &mut q_slab, na);
        traversals += weight;
        for (slot, &c) in active.iter().enumerate() {
            cols[c].q.as_mut_slice().copy_from_slice(&q_slab[slot * n..(slot + 1) * n]);
        }
        for (slot, &c) in active.iter().enumerate() {
            p_slab[slot * n..(slot + 1) * n].copy_from_slice(cols[c].pt.as_slice());
        }
        a.apply_adjoint_block(&p_slab, &mut q_slab, na);
        traversals += weight;
        for (slot, &c) in active.iter().enumerate() {
            cols[c].qt.as_mut_slice().copy_from_slice(&q_slab[slot * n..(slot + 1) * n]);
        }

        // Per-column recurrence updates, identical to the scalar solver.
        for &c in &active {
            let col = &mut cols[c];
            col.matvecs += 2;
            let denom = col.pt.dot(&col.q);
            if denom.abs() < 1e-290 {
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
            let rho_new = col.rt.dot(&col.r);
            let beta = rho_new / col.rho;
            col.rho = rho_new;
            for i in 0..n {
                col.p[i] = col.r[i] + beta * col.p[i];
                col.pt[i] = col.rt[i] + beta.conj() * col.pt[i];
            }
        }
    }

    // --- Epilogue, per column, mirroring the scalar solver exactly. -------
    let columns = cols
        .into_iter()
        .map(|mut col| {
            let mut stop = col.stop;
            if col.res <= opts.tolerance && col.res_dual <= opts.tolerance {
                stop = StopReason::Converged;
            }
            if !opts.record_history {
                col.history.push(col.res);
                col.dual_history.push(col.res_dual);
            }
            let primal_conv = col.res <= opts.tolerance;
            let dual_conv = col.res_dual <= opts.tolerance;
            BicgResult {
                x: col.x,
                dual_x: col.xt,
                history: ConvergenceHistory {
                    residuals: col.history,
                    stop_reason: if primal_conv { StopReason::Converged } else { stop },
                    matvecs: col.matvecs,
                },
                dual_history: ConvergenceHistory {
                    residuals: col.dual_history,
                    stop_reason: if dual_conv { StopReason::Converged } else { stop },
                    matvecs: col.matvecs,
                },
            }
        })
        .collect();
    BlockBicgResult { columns, traversals }
}

/// Per-column recurrence state of the preconditioned block solver: the
/// plain column state plus the preconditioned residuals `z = M⁻¹ r`,
/// `z̃ = M⁻† r̃`.
struct PrecondColumn {
    x: CVector,
    xt: CVector,
    r: CVector,
    rt: CVector,
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

/// [`bicg_dual_block`] with an optional preconditioner `M ≈ A`.
///
/// With `m = None` this **delegates to [`bicg_dual_block`]** (bitwise
/// unchanged).  With a preconditioner every column runs the preconditioned
/// dual BiCG recurrence of
/// [`bicg_dual_precond_seeded`](crate::bicg_dual_precond_seeded) — per
/// column bit-identical to that standalone solver, because the fused
/// matvecs are bit-identical per column and the preconditioner applies run
/// through the blocked [`Preconditioner::solve_block`] /
/// [`Preconditioner::solve_adjoint_block`] entry points, whose contract
/// (and default) is bitwise equivalence to the per-column solves.
/// Deflation, seeding and the external stop behave exactly as in the
/// unpreconditioned block solver.
pub fn bicg_dual_block_precond<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: Option<&M>,
    b: &[CVector],
    b_dual: &[CVector],
    seeds: Option<&[Option<(&CVector, &CVector)>]>,
    opts: &SolverOptions,
    external_stop: Option<&(dyn Fn(usize) -> bool + Sync)>,
) -> BlockBicgResult {
    let Some(m) = m else {
        return bicg_dual_block(a, b, b_dual, seeds, opts, external_stop);
    };
    let n = a.dim();
    assert_eq!(m.dim(), n, "preconditioner dimension mismatch");
    let nvecs = b.len();
    assert_eq!(b_dual.len(), nvecs, "dual rhs count mismatch");
    if let Some(s) = seeds {
        assert_eq!(s.len(), nvecs, "seed count mismatch");
    }
    let weight = a.traversal_weight();
    let mut traversals = 0usize;

    // --- Seed residuals r₀ = b - A x₀ through fused block applies. --------
    let seeded: Vec<usize> =
        (0..nvecs).filter(|&c| seeds.is_some_and(|s| s[c].is_some())).collect();
    let mut seed_r: Vec<CVector> = Vec::new();
    let mut seed_rt: Vec<CVector> = Vec::new();
    if !seeded.is_empty() {
        let s = seeds.expect("seeded columns imply a seed table");
        let mut x_slab = vec![Complex64::ZERO; n * seeded.len()];
        let mut y_slab = vec![Complex64::ZERO; n * seeded.len()];
        for (slot, &c) in seeded.iter().enumerate() {
            let (x0, _) = s[c].expect("listed as seeded");
            assert_eq!(x0.len(), n, "primal seed length mismatch");
            x_slab[slot * n..(slot + 1) * n].copy_from_slice(x0.as_slice());
        }
        a.apply_block(&x_slab, &mut y_slab, seeded.len());
        traversals += weight;
        seed_r = seeded
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let mut r = CVector::zeros(n);
                for i in 0..n {
                    r[i] = b[c][i] - y_slab[slot * n + i];
                }
                r
            })
            .collect();
        for (slot, &c) in seeded.iter().enumerate() {
            let (_, xt0) = s[c].expect("listed as seeded");
            assert_eq!(xt0.len(), n, "dual seed length mismatch");
            x_slab[slot * n..(slot + 1) * n].copy_from_slice(xt0.as_slice());
        }
        a.apply_adjoint_block(&x_slab, &mut y_slab, seeded.len());
        traversals += weight;
        seed_rt = seeded
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let mut rt = CVector::zeros(n);
                for i in 0..n {
                    rt[i] = b_dual[c][i] - y_slab[slot * n + i];
                }
                rt
            })
            .collect();
    }

    // Initial states per column, then ONE blocked preconditioner pass over
    // all columns: `solve_block` / `solve_adjoint_block` stream the factor
    // once per column tile of the slab instead of once per column, and are
    // contractually bitwise equivalent to the per-column applies.
    let init: Vec<(CVector, CVector, CVector, CVector, usize)> = (0..nvecs)
        .map(|c| {
            assert_eq!(b[c].len(), n, "rhs length mismatch");
            assert_eq!(b_dual[c].len(), n, "dual rhs length mismatch");
            let seed = seeds.and_then(|s| s[c]);
            match seed {
                None => (CVector::zeros(n), CVector::zeros(n), b[c].clone(), b_dual[c].clone(), 0),
                Some((x0, xt0)) => {
                    let slot = seeded.iter().position(|&s| s == c).expect("seeded slot");
                    (x0.clone(), xt0.clone(), seed_r[slot].clone(), seed_rt[slot].clone(), 2)
                }
            }
        })
        .collect();
    let mut r_slab = vec![Complex64::ZERO; n * nvecs];
    let mut z_slab = vec![Complex64::ZERO; n * nvecs];
    let mut zt_slab = vec![Complex64::ZERO; n * nvecs];
    for (slot, (_, _, r, _, _)) in init.iter().enumerate() {
        r_slab[slot * n..(slot + 1) * n].copy_from_slice(r.as_slice());
    }
    m.solve_block(&r_slab, &mut z_slab, nvecs);
    for (slot, (_, _, _, rt, _)) in init.iter().enumerate() {
        r_slab[slot * n..(slot + 1) * n].copy_from_slice(rt.as_slice());
    }
    m.solve_adjoint_block(&r_slab, &mut zt_slab, nvecs);

    let mut cols: Vec<PrecondColumn> = init
        .into_iter()
        .enumerate()
        .map(|(c, (x, xt, r, rt, matvecs))| {
            let mut z = CVector::zeros(n);
            let mut zt = CVector::zeros(n);
            z.as_mut_slice().copy_from_slice(&z_slab[c * n..(c + 1) * n]);
            zt.as_mut_slice().copy_from_slice(&zt_slab[c * n..(c + 1) * n]);
            let p = z.clone();
            let pt = zt.clone();
            let b_norm = b[c].norm().max(1e-300);
            let bt_norm = b_dual[c].norm().max(1e-300);
            let res = r.norm() / b_norm;
            let res_dual = rt.norm() / bt_norm;
            cbs_trace::record_iteration(Some(c), 0, res);
            let mut history = Vec::new();
            let mut dual_history = Vec::new();
            if opts.record_history {
                history.push(res);
                dual_history.push(res_dual);
            }
            let rho = rt.dot(&z);
            PrecondColumn {
                x,
                xt,
                r,
                rt,
                z,
                zt,
                p,
                pt,
                q: CVector::zeros(n),
                qt: CVector::zeros(n),
                b_norm,
                bt_norm,
                res,
                res_dual,
                history,
                dual_history,
                rho,
                matvecs,
                stop: StopReason::MaxIterations,
                active: true,
            }
        })
        .collect();

    // --- Lockstep iteration: per-column recurrences, fused matvecs. -------
    let mut p_slab: Vec<Complex64> = Vec::new();
    let mut q_slab: Vec<Complex64> = Vec::new();
    for iter in 0..opts.max_iterations {
        for col in cols.iter_mut().filter(|c| c.active) {
            if col.res <= opts.tolerance && col.res_dual <= opts.tolerance {
                col.stop = StopReason::Converged;
                col.active = false;
            } else if external_stop.is_some_and(|cb| cb(iter)) {
                col.stop = StopReason::ExternalStop;
                col.active = false;
            } else if !(col.rho.re.is_finite() && col.rho.im.is_finite()) || col.rho.abs() < 1e-290
            {
                col.stop = StopReason::Breakdown;
                col.active = false;
            }
        }
        let active: Vec<usize> = (0..nvecs).filter(|&c| cols[c].active).collect();
        if active.is_empty() {
            break;
        }

        let na = active.len();
        p_slab.clear();
        p_slab.resize(n * na, Complex64::ZERO);
        q_slab.clear();
        q_slab.resize(n * na, Complex64::ZERO);
        for (slot, &c) in active.iter().enumerate() {
            p_slab[slot * n..(slot + 1) * n].copy_from_slice(cols[c].p.as_slice());
        }
        a.apply_block(&p_slab, &mut q_slab, na);
        traversals += weight;
        for (slot, &c) in active.iter().enumerate() {
            cols[c].q.as_mut_slice().copy_from_slice(&q_slab[slot * n..(slot + 1) * n]);
        }
        for (slot, &c) in active.iter().enumerate() {
            p_slab[slot * n..(slot + 1) * n].copy_from_slice(cols[c].pt.as_slice());
        }
        a.apply_adjoint_block(&p_slab, &mut q_slab, na);
        traversals += weight;
        for (slot, &c) in active.iter().enumerate() {
            cols[c].qt.as_mut_slice().copy_from_slice(&q_slab[slot * n..(slot + 1) * n]);
        }

        // Per-column recurrence updates, identical to the preconditioned
        // scalar solver, with the two triangular applies batched across the
        // columns that survive the breakdown check so the factor streams
        // once per iteration instead of once per column.
        for &c in &active {
            let col = &mut cols[c];
            col.matvecs += 2;
            let denom = col.pt.dot(&col.q);
            if !(denom.re.is_finite() && denom.im.is_finite()) || denom.abs() < 1e-290 {
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
        let live: Vec<usize> = active.iter().copied().filter(|&c| cols[c].active).collect();
        if live.is_empty() {
            continue;
        }
        let nl = live.len();
        p_slab.clear();
        p_slab.resize(n * nl, Complex64::ZERO);
        q_slab.clear();
        q_slab.resize(n * nl, Complex64::ZERO);
        for (slot, &c) in live.iter().enumerate() {
            p_slab[slot * n..(slot + 1) * n].copy_from_slice(cols[c].r.as_slice());
        }
        m.solve_block(&p_slab, &mut q_slab, nl);
        for (slot, &c) in live.iter().enumerate() {
            cols[c].z.as_mut_slice().copy_from_slice(&q_slab[slot * n..(slot + 1) * n]);
        }
        for (slot, &c) in live.iter().enumerate() {
            p_slab[slot * n..(slot + 1) * n].copy_from_slice(cols[c].rt.as_slice());
        }
        m.solve_adjoint_block(&p_slab, &mut q_slab, nl);
        for (slot, &c) in live.iter().enumerate() {
            cols[c].zt.as_mut_slice().copy_from_slice(&q_slab[slot * n..(slot + 1) * n]);
        }
        for &c in &live {
            let col = &mut cols[c];
            let rho_new = col.rt.dot(&col.z);
            let beta = rho_new / col.rho;
            col.rho = rho_new;
            for i in 0..n {
                col.p[i] = col.z[i] + beta * col.p[i];
                col.pt[i] = col.zt[i] + beta.conj() * col.pt[i];
            }
        }
    }

    // --- Epilogue, per column, mirroring the scalar solver exactly. -------
    let columns = cols
        .into_iter()
        .map(|mut col| {
            let mut stop = col.stop;
            if col.res <= opts.tolerance && col.res_dual <= opts.tolerance {
                stop = StopReason::Converged;
            }
            if !opts.record_history {
                col.history.push(col.res);
                col.dual_history.push(col.res_dual);
            }
            let primal_conv = col.res <= opts.tolerance;
            let dual_conv = col.res_dual <= opts.tolerance;
            BicgResult {
                x: col.x,
                dual_x: col.xt,
                history: ConvergenceHistory {
                    residuals: col.history,
                    stop_reason: if primal_conv { StopReason::Converged } else { stop },
                    matvecs: col.matvecs,
                },
                dual_history: ConvergenceHistory {
                    residuals: col.dual_history,
                    stop_reason: if dual_conv { StopReason::Converged } else { stop },
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
    use crate::bicg::bicg_dual_seeded;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::DenseOp;
    use rand::SeedableRng;

    fn random_diag_dominant(n: usize, seed: u64) -> CMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut a = CMatrix::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += c64(n as f64, 0.5);
        }
        a
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
    fn block_solve_is_bitwise_identical_to_per_column_solves() {
        let n = 30;
        let a = random_diag_dominant(n, 301);
        let op = DenseOp::new(a);
        let b = rhs_block(n, 4, 302);
        let bd = rhs_block(n, 4, 303);
        let opts = SolverOptions::default().with_tolerance(1e-11);
        let block = bicg_dual_block(&op, &b, &bd, None, &opts, None);
        assert!(block.all_converged());
        for (c, col) in block.columns.iter().enumerate() {
            let single = bicg_dual_seeded(&op, &b[c], &bd[c], None, &opts, None);
            assert_bitwise_eq(col, &single);
        }
        // Deflation: columns converge at different iterations, yet the
        // fused traversal count is bounded by the slowest column.
        let max_matvecs = block.columns.iter().map(|c| c.history.matvecs).max().unwrap();
        assert!(block.traversals <= max_matvecs + 2);
        assert!(block.traversals < block.total_matvecs());
    }

    #[test]
    fn seeded_block_solve_matches_seeded_per_column_solves() {
        let n = 24;
        let a = random_diag_dominant(n, 304);
        let op = DenseOp::new(a);
        let b = rhs_block(n, 3, 305);
        let opts = SolverOptions::default().with_tolerance(1e-11);
        // Mixed seeding: column 1 warm (from its own cold solution), the
        // rest cold.
        let cold = bicg_dual_block(&op, &b, &b, None, &opts, None);
        let donor = &cold.columns[1];
        let seeds: Vec<Option<(&CVector, &CVector)>> =
            vec![None, Some((&donor.x, &donor.dual_x)), None];
        let warm = bicg_dual_block(&op, &b, &b, Some(&seeds), &opts, None);
        for (c, col) in warm.columns.iter().enumerate() {
            let single = bicg_dual_seeded(&op, &b[c], &b[c], seeds[c], &opts, None);
            assert_bitwise_eq(col, &single);
        }
        // The exactly-seeded column converges without iterating.
        assert_eq!(warm.columns[1].history.iterations(), 0);
        assert_eq!(warm.columns[1].history.matvecs, 2);
    }

    #[test]
    fn external_stop_and_histories_mirror_per_column_behaviour() {
        let n = 26;
        let a = random_diag_dominant(n, 306);
        let op = DenseOp::new(a);
        let b = rhs_block(n, 3, 307);
        let opts = SolverOptions::default().with_tolerance(1e-14);
        let stop = |iter: usize| iter >= 4;
        let block = bicg_dual_block(&op, &b, &b, None, &opts, Some(&stop));
        for (c, col) in block.columns.iter().enumerate() {
            let single = bicg_dual_seeded(&op, &b[c], &b[c], None, &opts, Some(&stop));
            assert_bitwise_eq(col, &single);
            assert!(col.history.iterations() <= 5);
        }
    }

    #[test]
    fn traversal_count_is_nvecs_fold_smaller_at_fixed_iterations() {
        // With a tolerance no column can reach, every column runs exactly
        // `max_iterations` lockstep steps: the block path performs
        // `2 · max_iterations` traversals where the per-column path
        // performs `nvecs · 2 · max_iterations`.
        let n = 20;
        let nvecs = 5;
        let a = random_diag_dominant(n, 308);
        let op = DenseOp::new(a);
        let b = rhs_block(n, nvecs, 309);
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 12, record_history: false };
        let block = bicg_dual_block(&op, &b, &b, None, &opts, None);
        assert_eq!(block.traversals, 2 * 12);
        assert_eq!(block.total_matvecs(), nvecs * 2 * 12);
        assert_eq!(block.total_matvecs(), nvecs * block.traversals);
    }

    #[test]
    fn preconditioned_block_matches_preconditioned_per_column_solves() {
        use crate::bicg::bicg_dual_precond_seeded;
        use cbs_sparse::{CooBuilder, Ilu0};
        let n = 40;
        let mut bld = CooBuilder::new(n, n);
        for i in 0..n {
            bld.push(i, i, c64(3.0, 0.4));
            bld.push(i, (i + 1) % n, c64(-1.0, 0.1));
            bld.push(i, (i + n - 1) % n, c64(-0.9, -0.2));
        }
        let a = bld.build();
        let ilu = Ilu0::from_csr(&a);
        let b = rhs_block(n, 4, 311);
        let bd = rhs_block(n, 4, 312);
        let opts = SolverOptions::default().with_tolerance(1e-11);

        // Mixed seeding to exercise the seeded preconditioned start.
        let cold = bicg_dual_block_precond(&a, Some(&ilu), &b, &bd, None, &opts, None);
        assert!(cold.all_converged());
        let donor = &cold.columns[2];
        let seeds: Vec<Option<(&CVector, &CVector)>> =
            vec![None, None, Some((&donor.x, &donor.dual_x)), None];
        let warm = bicg_dual_block_precond(&a, Some(&ilu), &b, &bd, Some(&seeds), &opts, None);
        for (c, col) in warm.columns.iter().enumerate() {
            let single =
                bicg_dual_precond_seeded(&a, Some(&ilu), &b[c], &bd[c], seeds[c], &opts, None);
            assert_bitwise_eq(col, &single);
        }
        assert_eq!(warm.columns[2].history.iterations(), 0);
        // The block path still fuses matvecs: fewer traversals than the sum
        // of per-column matvecs.
        assert!(cold.traversals < cold.total_matvecs());
    }

    #[test]
    fn none_preconditioner_block_delegates_bitwise() {
        let a = random_diag_dominant(18, 313);
        let op = DenseOp::new(a);
        let b = rhs_block(18, 3, 314);
        let opts = SolverOptions::default();
        let plain = bicg_dual_block(&op, &b, &b, None, &opts, None);
        let via =
            bicg_dual_block_precond::<_, cbs_sparse::Ilu0>(&op, None, &b, &b, None, &opts, None);
        assert_eq!(plain.traversals, via.traversals);
        for (p, v) in plain.columns.iter().zip(&via.columns) {
            assert_bitwise_eq(p, v);
        }
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
        let a = random_diag_dominant(16, 315);
        let op = DenseOp::new(a);
        let b = rhs_block(16, 3, 316);
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 7, record_history: false };
        let plain = bicg_dual_block(&op, &b, &b, None, &opts, None);
        let weighted = bicg_dual_block(&Weighted(&op), &b, &b, None, &opts, None);
        assert_eq!(plain.traversals, 2 * 7);
        assert_eq!(weighted.traversals, 3 * 2 * 7);
        assert_eq!(plain.total_matvecs(), weighted.total_matvecs());
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let a = random_diag_dominant(8, 310);
        let op = DenseOp::new(a);
        let out = bicg_dual_block(&op, &[], &[], None, &SolverOptions::default(), None);
        assert!(out.columns.is_empty());
        assert_eq!(out.traversals, 0);
    }
}

//! The one dual-BiCG kernel: all right-hand sides of one shifted system
//! advanced in lockstep through **fused block matvecs**, on the system
//! itself or on the split system of a preconditioner.
//!
//! The Sakurai-Sugiura contour solves are inherently blocked: every
//! quadrature node `z_j` owns `N_rh` independent systems `P(z_j) x = v_r`
//! that share the operator.  [`bicg_dual_block_precond`] keeps one BiCG
//! recurrence per column (its own `α`, `β`, `ρ`; Saad, *Iterative Methods
//! for Sparse Linear Systems*, Alg. 7.3, with the dual solution tracked
//! through the conjugated step sizes) and performs the primal and adjoint
//! matvecs of all still-active columns through a single
//! [`LinearOperator::apply_block`] traversal.  A single system is the
//! width-1 block ([`bicg()`](crate::bicg())).  There is one recurrence,
//! unpreconditioned (`z ≡ r`): a preconditioner `M = M_L·M_R` is solved
//! through, by running that recurrence on its split system
//! `M_L⁻¹ A M_R⁻¹` and certifying the true residuals at the end.  Every
//! column starts from zero.
//!
//! Two contracts, both locked by this file's tests against a textbook
//! scalar recurrence kept as a `#[cfg(test)]` oracle:
//!
//! * **Bitwise column parity.** Because `apply_block` and the split maps
//!   are bit-identical to their column-by-column forms and each column carries
//!   an independent recurrence, every column's solution, residual history,
//!   stop reason and matvec count are those of a standalone solve of that
//!   column — deflation included (a converged column freezes at exactly the
//!   state the standalone solve would have returned).
//! * **Slot-stable deflation.** A converged (or broken-down) column stops
//!   contributing work — it leaves the fused matvec — but keeps its slot in
//!   the result, so downstream reductions that walk the columns in order
//!   are independent of *when* each column converged.
//!
//! The real saving is operator traffic: the result reports `traversals`,
//! the number of fused block applies performed (one traversal each), which
//! is roughly `2 · max_c iters_c` instead of `Σ_c matvecs_c`.
//!
//! # Slabs and passes
//!
//! Each column owns its `x`, `x̃` (the result) and `r`, `r̃`.  The search
//! directions `p`, `p̃` and their images `q = A p`, `q̃ = A† p̃` live in four
//! column-major **slabs** over the active columns only, slot `k` holding
//! the `k`-th active column: the fused applies read and write them in place,
//! so nothing is gathered or copied around an apply.  When a column
//! deflates the survivors slide down one slot, in column order; that is the
//! only time the slabs move.  One iteration then streams each column in
//! three passes:
//!
//! 1. the denominator `p̃†q`;
//! 2. one fused update `x += αp`, `x̃ += ᾱp̃`, `r −= αq`, `r̃ −= ᾱq̃` that
//!    also accumulates `‖r‖²`, `‖r̃‖²` and `ρ = r̃†r`;
//! 3. `p ← r + βp`, `p̃ ← r̃ + β̄p̃`, written in place into the slab the next
//!    apply reads.
//!
//! Every fused pass applies, element by element and accumulator by
//! accumulator, the operations of the separate `axpy` / `nrm2` / `dotc`
//! calls it replaces, in the same order — so the fusion is bitwise
//! invisible.

use std::convert::Infallible;

use cbs_linalg::vector::dotc;
use cbs_linalg::{CVector, Complex64};
use cbs_sparse::{LinearOperator, Preconditioner, SplitOperator};

use crate::bicg::BicgResult;
use crate::history::{ConvergenceHistory, SolverOptions, StopReason};

/// Result of a batched dual BiCG solve.
#[derive(Clone, Debug)]
pub struct BlockBicgResult {
    /// Per-column results in input order, each bit-identical to a
    /// standalone solve of that column (matvec counts included).
    pub columns: Vec<BicgResult>,
    /// Number of fused block applies performed (primal or adjoint, any
    /// number of active columns): each counts one operator traversal.
    pub traversals: usize,
}

/// Per-column recurrence state; the search directions and their images
/// live in the solver's slabs (module docs).
struct Column {
    x: CVector,
    xt: CVector,
    r: CVector,
    rt: CVector,
    b_norm: f64,
    bt_norm: f64,
    /// `‖b̂‖`, `‖b̂̃‖` mapped out of the split system, when the recurrence
    /// runs on one.
    unsplit_norms: Option<[f64; 2]>,
    res: f64,
    res_dual: f64,
    /// The pair's residual after each iteration ([`pair_residual`]).
    history: Vec<f64>,
    rho: Complex64,
    matvecs: usize,
    stop: StopReason,
    active: bool,
}

impl Column {
    /// Whether the residuals `[r, r̃]` (the recurrence's, or true ones) of
    /// `split`'s split system, mapped out of it
    /// ([`Preconditioner::unsplit_residual_norm`]), meet `tol` relative to
    /// the mapped right-hand sides: always when the recurrence runs on no
    /// split system, never when a map is not finite.
    fn unsplit_passes<M: Preconditioner + ?Sized>(
        &self,
        split: Option<&M>,
        r: [&[Complex64]; 2],
        tol: f64,
    ) -> bool {
        let (Some(m), Some(norms)) = (split, self.unsplit_norms) else { return true };
        (0..2).all(|s| m.unsplit_residual_norm(s == 1, r[s]) / norms[s] <= tol)
    }
}

/// The one residual a primal/dual pair reports: the larger of its two
/// relative residuals, NaN if either is.  It meets the tolerance exactly
/// when both do, which is the stop rule.
fn pair_residual(primal: f64, dual: f64) -> f64 {
    if dual.is_nan() || primal < dual {
        dual
    } else {
        primal
    }
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

/// `b_c − A x_c` (`adjoint`: `b̃_c − A† x̃_c`) of the `listed` columns, one
/// slot of `out` each, from one fused apply.
fn residuals<A: LinearOperator + ?Sized>(
    a: &A,
    adjoint: bool,
    cols: &[Column],
    listed: &[usize],
    rhs: &[CVector],
    stage: &mut Vec<Complex64>,
    out: &mut Vec<Complex64>,
) {
    let n = a.dim();
    out.resize(n * listed.len(), Complex64::ZERO);
    if adjoint {
        gather(stage, listed.iter().map(|&c| &cols[c].xt));
        a.apply_adjoint_block(stage, out, listed.len());
    } else {
        gather(stage, listed.iter().map(|&c| &cols[c].x));
        a.apply_block(stage, out, listed.len());
    }
    for (k, &c) in listed.iter().enumerate() {
        for (y, &bi) in slot_mut(out, n, k).iter_mut().zip(rhs[c].as_slice()) {
            *y = bi - *y;
        }
    }
}

/// Slot `k` of a column-major slab with `n` rows.
fn slot(slab: &[Complex64], n: usize, k: usize) -> &[Complex64] {
    &slab[k * n..(k + 1) * n]
}

/// Mutable twin of [`slot`].
fn slot_mut(slab: &mut [Complex64], n: usize, k: usize) -> &mut [Complex64] {
    &mut slab[k * n..(k + 1) * n]
}

/// Drop the slots of the columns in `live` that are no longer active from
/// the `p`, `p̃` slabs: survivors slide down in column order, so slot `k`
/// holds column `live[k]` again.
fn compact(
    live: &mut Vec<usize>,
    cols: &[Column],
    n: usize,
    p: &mut Vec<Complex64>,
    pt: &mut Vec<Complex64>,
) {
    let mut kept = 0;
    for k in 0..live.len() {
        if !cols[live[k]].active {
            continue;
        }
        if kept < k {
            p.copy_within(k * n..(k + 1) * n, kept * n);
            pt.copy_within(k * n..(k + 1) * n, kept * n);
            live[kept] = live[k];
        }
        kept += 1;
    }
    live.truncate(kept);
    p.truncate(kept * n);
    pt.truncate(kept * n);
}

/// Pass 2 of an iteration on one column: `x += αp`, `x̃ += ᾱp̃`, `r −= αq`,
/// `r̃ −= ᾱq̃`, returning `(‖r‖², ‖r̃‖², r̃†r)` of the updated residuals.
/// Per element and per accumulator these are the operations of four `axpy`,
/// two `nrm2` and one `dotc` in their order, so the result is bitwise theirs.
fn step(
    alpha: Complex64,
    [p, pt, q, qt]: [&[Complex64]; 4],
    col: &mut Column,
) -> (f64, f64, Complex64) {
    let n = col.x.len();
    let (p, pt, q, qt) = (&p[..n], &pt[..n], &q[..n], &qt[..n]);
    let x = &mut col.x.as_mut_slice()[..n];
    let xt = &mut col.xt.as_mut_slice()[..n];
    let r = &mut col.r.as_mut_slice()[..n];
    let rt = &mut col.rt.as_mut_slice()[..n];
    let (alpha_c, minus_alpha, minus_alpha_c) = (alpha.conj(), -alpha, -alpha.conj());
    let (mut r_sq, mut rt_sq, mut rho) = (0.0f64, 0.0f64, Complex64::ZERO);
    for i in 0..n {
        x[i] += alpha * p[i];
        xt[i] += alpha_c * pt[i];
        r[i] += minus_alpha * q[i];
        rt[i] += minus_alpha_c * qt[i];
        r_sq += r[i].norm_sqr();
        rt_sq += rt[i].norm_sqr();
        rho += rt[i].conj() * r[i];
    }
    (r_sq, rt_sq, rho)
}

/// Pass 3 of an iteration on one column: `p ← r + βp`, `p̃ ← r̃ + β̄p̃`, in
/// place in the search-direction slabs.
fn redirect(
    beta: Complex64,
    r: &[Complex64],
    rt: &[Complex64],
    p: &mut [Complex64],
    pt: &mut [Complex64],
) {
    let n = p.len();
    let (r, rt, pt) = (&r[..n], &rt[..n], &mut pt[..n]);
    let beta_c = beta.conj();
    for i in 0..n {
        p[i] = r[i] + beta * p[i];
        pt[i] = rt[i] + beta_c * pt[i];
    }
}

/// Solve `A x_c = b_c` and `A† x̃_c = b̃_c` for all columns `c` in lockstep
/// with fused block matvecs: on `a` itself, or through the split system of
/// the preconditioner `m`.
///
/// With `m = None` the recurrence runs on `a`, and a column converges once
/// both its relative residuals meet [`SolverOptions::tolerance`].  Each
/// column reports one [`ConvergenceHistory`] for its pair: the larger of
/// the two residuals after each iteration, and [`StopReason::Converged`]
/// only when both sides met the tolerance, else the recurrence's own stop
/// (the cap, or a breakdown) — a pair whose primal side converged while its
/// dual side did not is not converged.
///
/// With a split preconditioner `M = M_L·M_R ≈ A` the same recurrence runs
/// on `Â = M_L⁻¹ A M_R⁻¹` ([`SplitOperator`]), from the right-hand sides
/// mapped in (`b̂ = M_L⁻¹b`, dual `M_R⁻†b̃`), and the solutions are mapped
/// out (`x = M_R⁻¹x̂`, dual `x̃ = M_L⁻†ŷ`).  In exact arithmetic these are
/// the iterates of BiCG on `A` preconditioned by `M`.  The dual side keeps
/// the paper's dual-circle trick: with `M ≈ P(z)`, `M† ≈ P(z)† = P(1/z̄)`,
/// the operator of the paired inner-circle node.  The stopping contract is
/// the true relative residual:
///
/// * a column whose split residuals pass converges only if the residuals of
///   `A` they stand for, `‖M_L r̂‖` and `‖M_R†r̂̃‖`
///   ([`Preconditioner::unsplit_residual_norm`]) relative to the mapped
///   right-hand sides, pass too, and then the same maps of the true split
///   residuals `b̂ − Âx̂`, `b̂̃ − Â†ŷ` that the recurrence's have drifted from
///   (one split apply per side over the columns that got that far, counted
///   in their matvecs and the traversals; the maps count as neither).  A
///   column that fails either keeps iterating on the same recurrence;
/// * one certificate per call: one fused apply of `a` and one of `a†`
///   recompute every column's true residuals `‖b − Ax‖/‖b‖` and
///   `‖b̃ − A†x̃‖/‖b̃‖` from the returned solutions (2 more matvecs per
///   column, 2 more traversals).  The column reports
///   [`StopReason::Converged`] exactly when both recomputed residuals meet
///   the tolerance, and [`StopReason::MaxIterations`] if the recurrence
///   stopped it as converged but the certificate fails a side.  The last
///   entry of its history is the larger of the two true residuals; the
///   entries before it are the split system's.
///
/// Every column starts from `x₀ = x̃₀ = 0`.  `_seeds` and `_external_stop`
/// admit only `None`: vestiges of a per-column initial guess and of an
/// external stop that no solve uses any more, kept only because the repo
/// benchmark's one-node replay names them (released by ROADMAP 1(a)).
pub fn bicg_dual_block_precond<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: Option<&M>,
    b: &[CVector],
    b_dual: &[CVector],
    _seeds: Option<Infallible>,
    opts: &SolverOptions,
    _external_stop: Option<Infallible>,
) -> BlockBicgResult {
    let Some(m) = m else { return recurrence(a, None::<&M>, b, b_dual, opts) };
    let (n, k) = (a.dim(), b.len());
    assert_eq!(m.dim(), n, "preconditioner dimension mismatch");
    let split_rhs = |rhs: &[CVector], dual| -> Vec<CVector> {
        let mut rhs = rhs.to_vec();
        rhs.iter_mut().for_each(|v| m.split_rhs(dual, v.as_mut_slice(), 1));
        rhs
    };
    let (b_hat, b_hat_dual) = (split_rhs(b, false), split_rhs(b_dual, true));
    let mut solved = recurrence(&SplitOperator(m), Some(m), &b_hat, &b_hat_dual, opts);
    for col in &mut solved.columns {
        m.unsplit(false, col.x.as_mut_slice(), 1);
        m.unsplit(true, col.dual_x.as_mut_slice(), 1);
    }

    // The certificate: one fused apply of `a` and one of `a†`.
    let slab = |pick: fn(&BicgResult) -> &CVector| -> Vec<Complex64> {
        solved.columns.iter().flat_map(|col| pick(col).iter().copied()).collect()
    };
    let (mut ax, mut axt) = (vec![Complex64::ZERO; n * k], vec![Complex64::ZERO; n * k]);
    a.apply_block(&slab(|col| &col.x), &mut ax, k);
    a.apply_adjoint_block(&slab(|col| &col.dual_x), &mut axt, k);
    let truth = |rhs: &CVector, y: &[Complex64]| {
        let rhs = rhs.as_slice();
        let r: f64 = rhs.iter().zip(y).map(|(&bi, &yi)| (bi - yi).norm_sqr()).sum();
        r.sqrt() / rhs.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt().max(1e-300)
    };
    for (c, col) in solved.columns.iter_mut().enumerate() {
        let (primal, dual) = (truth(&b[c], slot(&ax, n, c)), truth(&b_dual[c], slot(&axt, n, c)));
        let history = &mut col.history;
        history.matvecs += 2;
        if primal <= opts.tolerance && dual <= opts.tolerance {
            history.stop_reason = StopReason::Converged;
        } else if history.stop_reason == StopReason::Converged {
            history.stop_reason = StopReason::MaxIterations;
        }
        let last = history.residuals.last_mut().expect("a history holds its final residual");
        *last = pair_residual(primal, dual);
    }
    solved.traversals += 2;
    solved
}

/// The one recurrence (module docs) on `a`.  When `split` is given, `a` is
/// its split system, and a column stops only on the mapped residuals too
/// ([`bicg_dual_block_precond`]).
fn recurrence<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    split: Option<&M>,
    b: &[CVector],
    b_dual: &[CVector],
    opts: &SolverOptions,
) -> BlockBicgResult {
    let n = a.dim();
    let nvecs = b.len();
    assert_eq!(b_dual.len(), nvecs, "dual rhs count mismatch");
    let tol = opts.tolerance;
    let mut traversals = 0usize;

    // --- Initial state: x₀ = 0, r₀ = b. -----------------------------------
    let mut cols: Vec<Column> = (0..nvecs)
        .map(|c| {
            assert_eq!(b[c].len(), n, "rhs length mismatch");
            assert_eq!(b_dual[c].len(), n, "dual rhs length mismatch");
            Column {
                x: CVector::zeros(n),
                xt: CVector::zeros(n),
                r: b[c].clone(),
                rt: b_dual[c].clone(),
                b_norm: b[c].norm().max(1e-300),
                bt_norm: b_dual[c].norm().max(1e-300),
                unsplit_norms: split.map(|m| {
                    [false, true].map(|dual| {
                        let rhs = if dual { &b_dual[c] } else { &b[c] };
                        m.unsplit_residual_norm(dual, rhs.as_slice()).max(1e-300)
                    })
                }),
                res: 0.0,
                res_dual: 0.0,
                history: Vec::new(),
                rho: Complex64::ZERO,
                matvecs: 0,
                stop: StopReason::MaxIterations,
                active: true,
            }
        })
        .collect();

    // The slabs (module docs): slot `k` of `p`, `p̃`, `q`, `q̃` belongs to
    // column `live[k]`; `stage` packs per-column vectors for an apply.
    // p₀ = r₀, p̃₀ = r̃₀.
    let mut live: Vec<usize> = (0..nvecs).collect();
    let (mut p, mut pt) = (Vec::new(), Vec::new());
    let (mut q, mut qt) = (Vec::new(), Vec::new());
    let mut stage: Vec<Complex64> = Vec::new();
    gather(&mut p, cols.iter().map(|col| &col.r));
    gather(&mut pt, cols.iter().map(|col| &col.rt));
    for (c, col) in cols.iter_mut().enumerate() {
        col.rho = dotc(col.rt.as_slice(), slot(&p, n, c));
        col.res = col.r.norm() / col.b_norm;
        col.res_dual = col.rt.norm() / col.bt_norm;
        col.history.push(pair_residual(col.res, col.res_dual));
    }

    // --- Lockstep iteration: per-column recurrences, fused applies. -------
    for _ in 0..opts.max_iterations {
        // A column converges once both residuals meet the tolerance.  On a
        // split system they must meet it mapped out of the split too, and
        // then so must the true residuals `b − a x`, `b̃ − a† x̃` the
        // recurrence's have drifted from (one fused apply per side over the
        // columns that passed, counted in their matvecs and the traversals).
        let mut passing: Vec<usize> = (0..nvecs)
            .filter(|&c| {
                let col = &cols[c];
                let r = [col.r.as_slice(), col.rt.as_slice()];
                col.active
                    && col.res <= tol
                    && col.res_dual <= tol
                    && col.unsplit_passes(split, r, tol)
            })
            .collect();
        if passing.first().is_some_and(|&c| cols[c].unsplit_norms.is_some()) {
            residuals(a, false, &cols, &passing, b, &mut stage, &mut q);
            residuals(a, true, &cols, &passing, b_dual, &mut stage, &mut qt);
            traversals += 2;
            let mut slots = 0..;
            passing.retain(|&c| {
                let (k, col) = (slots.next().unwrap_or_default(), &mut cols[c]);
                col.matvecs += 2;
                col.unsplit_passes(split, [slot(&q, n, k), slot(&qt, n, k)], tol)
            });
        }

        // Top-of-loop checks: convergence, ρ breakdown.  A column that trips
        // one freezes in place (deflation) but keeps its result slot; its
        // slab slots go.
        for (c, col) in cols.iter_mut().enumerate().filter(|(_, col)| col.active) {
            if passing.contains(&c) {
                col.stop = StopReason::Converged;
                col.active = false;
            } else if breaks_down(col.rho) {
                col.stop = StopReason::Breakdown;
                col.active = false;
            }
        }
        compact(&mut live, &cols, n, &mut p, &mut pt);
        if live.is_empty() {
            break;
        }

        // q = A p, q̃ = A† p̃ over the active columns only.
        let width = live.len();
        q.resize(n * width, Complex64::ZERO);
        qt.resize(n * width, Complex64::ZERO);
        a.apply_block(&p, &mut q, width);
        traversals += 1;
        a.apply_adjoint_block(&pt, &mut qt, width);
        traversals += 1;

        // Passes 1–3 per column.
        for (k, &c) in live.iter().enumerate() {
            let col = &mut cols[c];
            col.matvecs += 2;
            let denom = dotc(slot(&pt, n, k), slot(&q, n, k));
            if breaks_down(denom) {
                col.stop = StopReason::Breakdown;
                col.active = false;
                continue;
            }
            let alpha = col.rho / denom;
            let slots = [slot(&p, n, k), slot(&pt, n, k), slot(&q, n, k), slot(&qt, n, k)];
            let (r_sq, rt_sq, rho) = step(alpha, slots, col);
            col.res = r_sq.sqrt() / col.b_norm;
            col.res_dual = rt_sq.sqrt() / col.bt_norm;
            col.history.push(pair_residual(col.res, col.res_dual));
            let beta = rho / col.rho;
            col.rho = rho;
            let (r, rt) = (col.r.as_slice(), col.rt.as_slice());
            redirect(beta, r, rt, slot_mut(&mut p, n, k), slot_mut(&mut pt, n, k));
        }
    }

    // --- Epilogue, per column. --------------------------------------------
    let columns = cols
        .into_iter()
        .map(|col| {
            // A pair converges when both sides meet the tolerance; a split
            // system's columns only through the checks above.
            let converged = col.stop == StopReason::Converged
                || (col.unsplit_norms.is_none() && col.res <= tol && col.res_dual <= tol);
            BicgResult {
                x: col.x,
                dual_x: col.xt,
                history: ConvergenceHistory {
                    residuals: col.history,
                    stop_reason: if converged { StopReason::Converged } else { col.stop },
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
    use crate::bicg::bicg;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::{CooBuilder, CsrMatrix, DenseOp};
    use rand::SeedableRng;

    /// The reference the kernel is held to, column by column and bit for
    /// bit: the textbook single-vector dual BiCG (Saad Alg. 7.3), written
    /// against the *scalar* `apply` entry points, reporting the pair as the
    /// kernel does: the larger residual, converged only when both sides
    /// are.  Test-only — production code has the one block kernel above.
    fn scalar_oracle<A: LinearOperator + ?Sized>(
        a: &A,
        b: &CVector,
        b_dual: &CVector,
        opts: &SolverOptions,
    ) -> BicgResult {
        let n = a.dim();
        let mut matvecs = 0usize;
        let (mut x, mut xt) = (CVector::zeros(n), CVector::zeros(n));
        let (mut r, mut rt) = (b.clone(), b_dual.clone());
        let mut p = r.clone();
        let mut pt = rt.clone();
        let b_norm = b.norm().max(1e-300);
        let bt_norm = b_dual.norm().max(1e-300);
        let mut res = r.norm() / b_norm;
        let mut res_dual = rt.norm() / bt_norm;
        let mut history = vec![pair_residual(res, res_dual)];
        let mut q = CVector::zeros(n);
        let mut qt = CVector::zeros(n);
        let mut rho = rt.dot(&r);
        let mut stop = StopReason::MaxIterations;

        for _ in 0..opts.max_iterations {
            if res <= opts.tolerance && res_dual <= opts.tolerance {
                stop = StopReason::Converged;
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
            history.push(pair_residual(res, res_dual));
            let rho_new = rt.dot(&r);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
                pt[i] = rt[i] + beta.conj() * pt[i];
            }
        }
        if res <= opts.tolerance && res_dual <= opts.tolerance {
            stop = StopReason::Converged;
        }
        BicgResult {
            x,
            dual_x: xt,
            history: ConvergenceHistory { residuals: history, stop_reason: stop, matvecs },
        }
    }

    /// The unpreconditioned kernel call (`M` needs a type even when `None`).
    fn block_plain<A: LinearOperator + ?Sized>(
        a: &A,
        b: &[CVector],
        b_dual: &[CVector],
        opts: &SolverOptions,
    ) -> BlockBicgResult {
        bicg_dual_block_precond(a, None::<&dyn Preconditioner>, b, b_dual, None, opts, None)
    }

    /// Matvec-equivalents over the columns (what solving them one at a time
    /// would have applied).
    fn total_matvecs(block: &BlockBicgResult) -> usize {
        block.columns.iter().map(|c| c.history.matvecs).sum()
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
    }

    #[test]
    fn cold_block_is_bitwise_the_oracle_with_deflating_columns() {
        let n = 30;
        let a = random_diag_dominant(n, 301);
        let op = DenseOp::new(a.clone());
        let mut b = rhs_block(n, 4, 302);
        // A zero right-hand side converges before the first iteration: it
        // deflates at once while its neighbours keep iterating.
        b[2] = CVector::zeros(n);
        let mut bd = rhs_block(n, 4, 303);
        // One more column with known primal and dual solutions.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(304);
        let (x_true, xd_true) = (CVector::random(n, &mut rng), CVector::random(n, &mut rng));
        b.push(a.matvec(&x_true));
        bd.push(a.adjoint().matvec(&xd_true));
        let opts = SolverOptions { tolerance: 1e-11, ..SolverOptions::default() };
        let block = block_plain(&op, &b, &bd, &opts);
        for (c, col) in block.columns.iter().enumerate() {
            let single = scalar_oracle(&op, &b[c], &bd[c], &opts);
            assert_bitwise_eq(col, &single);
        }
        assert!(block.columns.iter().enumerate().all(|(c, col)| c == 2 || col.history.converged()));
        let iters: Vec<usize> = block.columns.iter().map(|c| c.history.iterations()).collect();
        assert!(iters.iter().any(|&i| i != iters[0]), "no column deflated early: {iters:?}");
        // Both the primal and the dual solutions solve their true systems.
        let known = &block.columns[4];
        assert!((&known.x - &x_true).norm() / x_true.norm() < 1e-8);
        assert!((&known.dual_x - &xd_true).norm() / xd_true.norm() < 1e-8);
        assert!(known.history.iterations() <= n + 2);
        // The fused traversal count is bounded by the slowest column.
        let max_matvecs = block.columns.iter().map(|c| c.history.matvecs).max().unwrap();
        assert!(block.traversals <= max_matvecs + 2);
        assert!(block.traversals < total_matvecs(&block));
    }

    #[test]
    fn width_one_block_is_the_scalar_solver() {
        // OBM's Green-column call: the dual right-hand side is the
        // right-hand side.
        let n = 25;
        let op = DenseOp::new(random_diag_dominant(n, 216));
        let b = rhs_block(n, 2, 217);
        let opts = SolverOptions::default();
        let oracle = scalar_oracle(&op, &b[0], &b[0], &opts);
        let (x, history) = bicg(&op, &b[0], &opts);
        assert_eq!(x, oracle.x);
        assert_eq!(history.residuals, oracle.history.residuals);
        assert_eq!(history.stop_reason, oracle.history.stop_reason);
        assert_eq!(history.matvecs, oracle.history.matvecs);
    }

    /// One record per pair: a column whose primal side meets the tolerance
    /// while its dual side breaks down or runs into the cap is not
    /// converged — its stop reason is the pair's, as the oracle's is.
    #[test]
    fn a_pair_whose_dual_fails_is_not_converged() {
        // On a diagonal operator `e₀ + e₁` lies in a two-dimensional
        // invariant subspace: the primal side meets the tolerance after two
        // iterations, the dual side, from a generic right-hand side, needs
        // about `n`, past the cap.  A zero primal right-hand side has met
        // it from the start, and its `ρ = r̃†r = 0` breaks the recurrence
        // down at once.
        let n = 16;
        let diagonal = CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                c64(3.0 + i as f64, 0.5 + 0.1 * i as f64)
            } else {
                Complex64::ZERO
            }
        });
        let op = DenseOp::new(diagonal);
        let bd = rhs_block(n, 2, 322);
        let b = vec![&CVector::unit(n, 0) + &CVector::unit(n, 1), CVector::zeros(n)];
        let opts = SolverOptions { tolerance: 1e-10, max_iterations: 3, ..Default::default() };
        let block = block_plain(&op, &b, &bd, &opts);
        for (c, col) in block.columns.iter().enumerate() {
            assert_bitwise_eq(col, &scalar_oracle(&op, &b[c], &bd[c], &opts));
            let primal = (&b[c] - &op.apply_vec(&col.x)).norm() / b[c].norm().max(1e-300);
            assert!(primal <= opts.tolerance, "column {c}: the primal side passes");
            assert!(col.history.final_residual() > opts.tolerance, "column {c}");
        }
        let stops: Vec<StopReason> = block.columns.iter().map(|c| c.history.stop_reason).collect();
        assert_eq!(stops, [StopReason::MaxIterations, StopReason::Breakdown]);
        assert_eq!(block.columns[0].history.iterations(), 3);
        assert_eq!(block.columns[1].history.iterations(), 0);
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
    fn non_finite_inner_product_is_a_breakdown() {
        let n = 40;
        let a = shifted_laplacian(n, c64(0.15, 0.35));
        let opts = SolverOptions { tolerance: 1e-11, max_iterations: 60, ..Default::default() };
        for (width, poisoned) in [(1usize, 0usize), (4, 1)] {
            let b = rhs_block(n, width, 317);
            let clean = block_plain(&a, &b, &b, &opts);
            let faulty = NanOnSecondApply { inner: &a, poisoned, applies: 0.into() };
            let out = block_plain(&faulty, &b, &b, &opts);
            for (c, (col, clean)) in out.columns.iter().zip(&clean.columns).enumerate() {
                if c == poisoned {
                    let label = format!("width {width}");
                    assert_eq!(col.history.stop_reason, StopReason::Breakdown, "{label}");
                    assert!(col.history.iterations() <= 2, "{label}: iterated on NaNs");
                } else {
                    assert_bitwise_eq(col, clean);
                }
            }
        }
    }

    /// Passes `inner` through and records every primal input column, except
    /// that an output column whose input column is bitwise `trigger` comes
    /// back NaN: a fault that follows one column's recurrence to whichever
    /// slab slot it occupies.
    struct Tripwire<'a> {
        inner: &'a CsrMatrix,
        trigger: Vec<Complex64>,
        seen: std::sync::Mutex<Vec<Vec<Complex64>>>,
    }

    impl LinearOperator for Tripwire<'_> {
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
            let n = self.nrows();
            for (xc, yc) in x.chunks_exact(n).zip(y.chunks_exact_mut(n)) {
                self.seen.lock().unwrap().push(xc.to_vec());
                if xc == self.trigger.as_slice() {
                    yc.fill(c64(f64::NAN, f64::NAN));
                }
            }
        }
    }

    #[test]
    fn columns_leaving_mid_slab_keep_every_column_bitwise_the_oracle() {
        // Nine cold columns that leave the slabs from the middle at
        // different iterations.  Each right-hand side lives on its own
        // diagonal block, and BiCG on a block of size `s` ends within `s`
        // iterations, so graded block sizes grade the leave iterations.
        // Slot 4's right-hand side is zero (it leaves before the first
        // apply) and slot 6 is NaN-poisoned at its third apply (a
        // breakdown after the apply).
        let sizes = [2, 9, 3, 7, 1, 5, 8, 4, 6];
        let starts: Vec<usize> = sizes
            .iter()
            .scan(0, |end, &s| {
                *end += s;
                Some(*end - s)
            })
            .collect();
        let n: usize = sizes.iter().sum();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(321);
        let mut bld = CooBuilder::new(n, n);
        for (&size, &start) in sizes.iter().zip(&starts) {
            let block = CMatrix::random(size, size, &mut rng);
            for i in 0..size {
                bld.push(start + i, start + i, block[(i, i)] + c64(3.0, 0.35));
                for j in (0..size).filter(|&j| j != i) {
                    bld.push(start + i, start + j, block[(i, j)]);
                }
            }
        }
        let a = bld.build();
        let on_block = |c: usize, rng: &mut rand_chacha::ChaCha8Rng| {
            let mut v = CVector::zeros(n);
            for (k, vk) in CVector::random(sizes[c], rng).as_slice().iter().enumerate() {
                v[starts[c] + k] = *vk;
            }
            v
        };
        let mut b: Vec<CVector> = (0..9).map(|c| on_block(c, &mut rng)).collect();
        let mut bd: Vec<CVector> = (0..9).map(|c| on_block(c, &mut rng)).collect();
        (b[4], bd[4]) = (CVector::zeros(n), CVector::zeros(n));
        let opts = SolverOptions { tolerance: 1e-11, ..SolverOptions::default() };
        let recorder = Tripwire { inner: &a, trigger: Vec::new(), seen: Vec::new().into() };
        scalar_oracle(&recorder, &b[6], &bd[6], &opts);
        let trigger = recorder.seen.into_inner().unwrap().swap_remove(2);
        let faulty = Tripwire { inner: &a, trigger, seen: Vec::new().into() };
        let block = block_plain(&faulty, &b, &bd, &opts);
        for (c, col) in block.columns.iter().enumerate() {
            assert_bitwise_eq(col, &scalar_oracle(&faulty, &b[c], &bd[c], &opts));
        }
        let cols = &block.columns;
        assert_eq!(cols[4].history.iterations(), 0);
        assert_eq!(cols[6].history.stop_reason, StopReason::Breakdown);
        assert_eq!(cols[6].history.iterations(), 2);
        assert!(cols.iter().enumerate().all(|(c, col)| c == 6 || col.history.converged()));
        let mut iters: Vec<usize> = cols.iter().map(|c| c.history.iterations()).collect();
        iters.sort_unstable();
        iters.dedup();
        assert!(iters.len() >= 6, "columns left together: {iters:?}");
    }

    /// A split of a `DenseOp` whose maps are the identity and whose split
    /// system is the operator itself, but which reports `‖D r‖` for a
    /// residual `r`, as a system scaled row by row would — NaN for the
    /// calls `nan_at` picks by their index — and logs every report in order.
    struct RowScaled<'a> {
        inner: &'a DenseOp,
        scale: &'a [f64],
        nan_at: &'a (dyn Fn(usize) -> bool + Sync),
        log: std::sync::Mutex<Vec<(bool, f64)>>,
    }

    impl Preconditioner for RowScaled<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn split_rhs(&self, _dual: bool, _b: &mut [Complex64], _nvecs: usize) {}
        fn split_apply(&self, dual: bool, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
            if dual {
                self.inner.apply_adjoint_block(x, y, nvecs);
            } else {
                self.inner.apply_block(x, y, nvecs);
            }
        }
        fn unsplit(&self, _dual: bool, _x: &mut [Complex64], _nvecs: usize) {}
        fn unsplit_residual_norm(&self, dual: bool, r: &[Complex64]) -> f64 {
            let scaled: f64 = r.iter().zip(self.scale).map(|(v, d)| v.scale(*d).norm_sqr()).sum();
            let mut log = self.log.lock().unwrap();
            let norm = if (self.nan_at)(log.len()) { f64::NAN } else { scaled.sqrt() };
            log.push((dual, norm));
            norm
        }
    }

    #[test]
    fn a_column_stops_when_its_mapped_and_true_residuals_pass_too() {
        // The right-hand sides vanish on the rows the map weights 100×, the
        // residuals do not: the mapped residuals pass after the split ones.
        let n = 24;
        let op = DenseOp::new(random_diag_dominant(n, 318));
        let heavy = |i: usize| i.is_multiple_of(3);
        let zero_heavy = |mut v: CVector| {
            (0..n).filter(|&i| heavy(i)).for_each(|i| v[i] = Complex64::ZERO);
            v
        };
        let b: Vec<CVector> = rhs_block(n, 3, 319).into_iter().map(zero_heavy).collect();
        let bd: Vec<CVector> = rhs_block(n, 3, 320).into_iter().map(zero_heavy).collect();
        let scale: Vec<f64> = (0..n).map(|i| if heavy(i) { 100.0 } else { 1.0 }).collect();
        let opts = SolverOptions { tolerance: 1e-10, ..SolverOptions::default() };
        let tol = opts.tolerance;
        let split = |c: &[CVector], d: &[CVector], m: &RowScaled<'_>, opts: &SolverOptions| {
            bicg_dual_block_precond(&op, Some(m), c, d, None, opts, None)
        };
        let run = |c: usize, nan_at: &(dyn Fn(usize) -> bool + Sync), opts: &SolverOptions| {
            let m = RowScaled { inner: &op, scale: &scale, nan_at, log: Vec::new().into() };
            let mut out = split(&b[c..=c], &bd[c..=c], &m, opts);
            (out.columns.pop().unwrap(), m.log.into_inner().unwrap())
        };

        let mut longer = 0;
        let mapped =
            RowScaled { inner: &op, scale: &scale, nan_at: &|_| false, log: Vec::new().into() };
        let plain = block_plain(&op, &b, &bd, &opts);
        let block = split(&b, &bd, &mapped, &opts);
        let truth = |x: &CVector, rhs: &CVector, adjoint: bool| {
            let ax = if adjoint { op.apply_adjoint_vec(x) } else { op.apply_vec(x) };
            (rhs - &ax).norm() / rhs.norm()
        };
        for (c, plain) in plain.columns.iter().enumerate() {
            // Alone, the column is the block's: the same recurrence as
            // without the map, run for longer, its last entry the larger
            // certified true residual ...
            let (col, log) = run(c, &|_| false, &opts);
            assert_bitwise_eq(&col, &block.columns[c]);
            let (h, plain) = (&col.history.residuals, &plain.history.residuals);
            let k = plain.len().min(h.len() - 1);
            assert_eq!(h[..k], plain[..k], "column {c}");
            assert!(col.history.converged(), "column {c}");
            let last = h[h.len() - 1];
            let worse = truth(&col.x, &b[c], false).max(truth(&col.dual_x, &bd[c], true));
            assert!((worse - last).abs() <= 1e-9 * last, "column {c}");
            longer += usize::from(h.len() > plain.len());

            // ... to the first iteration that passes every test.  The log
            // replays them: the two mapped right-hand sides, then at every
            // iteration whose split residuals pass the primal map and, if it
            // passed, the dual one; if both passed, the same for the true
            // residuals.
            let checks = log.len();
            let mut log = log.into_iter();
            let mut passes = |dual, norm: Option<f64>| {
                let (side, logged) = log.next().expect("a logged map");
                assert_eq!(side, dual, "column {c}");
                norm.map_or(logged, |b| logged / b)
            };
            let norms = [passes(false, None), passes(true, None)];
            let mut both =
                || passes(false, Some(norms[0])) <= tol && passes(true, Some(norms[1])) <= tol;
            let last = h.len() - 1;
            for j in (0..=last).filter(|&j| h[j] <= tol) {
                let mapped = both();
                let confirmed = mapped && both();
                assert_eq!((mapped, confirmed), (j == last, j == last), "column {c} iteration {j}");
            }
            assert!(log.next().is_none(), "column {c}: a map after the stop");

            // A rejected true-residual check keeps the column iterating on
            // the same recurrence, to the next iteration that passes all.
            let (later, _) = run(c, &|k| k == checks - 2, &opts);
            assert!(later.history.converged(), "column {c}");
            assert!(later.history.residuals.len() > h.len(), "column {c}");
            assert_eq!(later.history.residuals[..last], h[..last], "column {c}");

            // A map that never comes back finite never lets the recurrence
            // stop: it runs to the cap.
            let (never, _) = run(c, &|_| true, &SolverOptions { max_iterations: 60, ..opts });
            assert_eq!(never.history.iterations(), 60, "column {c}");
            assert_eq!(never.history.residuals[..last], h[..last], "column {c}");
        }
        assert!(longer > 0, "no mapped residual passed after the split one");
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
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 12, ..Default::default() };
        let block = block_plain(&op, &b, &b, &opts);
        assert_eq!(block.traversals, 2 * 12);
        assert_eq!(total_matvecs(&block), nvecs * block.traversals);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let op = DenseOp::new(random_diag_dominant(8, 310));
        let out = block_plain(&op, &[], &[], &SolverOptions::default());
        assert!(out.columns.is_empty());
        assert_eq!(out.traversals, 0);
    }
}

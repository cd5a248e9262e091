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
//! width-1 block ([`bicg()`](crate::bicg())); no preconditioner is the same
//! loop with `z ≡ r`.  Every column starts from zero.
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
//! 3. `p ← z + βp`, `p̃ ← z̃ + β̄p̃`, written in place into the slab the next
//!    apply reads.
//!
//! Without a preconditioner `z ≡ r`, so pass 2 already holds the next `ρ`.
//! With one, the surviving columns' `r`, `r̃` are staged into one slab for
//! [`Preconditioner::solve_block`] / [`Preconditioner::solve_adjoint_block`],
//! pass 3 reads `z`, `z̃` straight from their output slabs, and `ρ = r̃†z`
//! costs one more pass.  Every fused pass applies, element by element and
//! accumulator by accumulator, the operations of the separate `axpy` /
//! `nrm2` / `dotc` calls it replaces, in the same order — so the fusion is
//! bitwise invisible.

use std::convert::Infallible;

use cbs_linalg::vector::dotc;
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
    /// Number of fused block applies performed (primal or adjoint, any
    /// number of active columns): each counts one operator traversal.
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

/// Per-column recurrence state; the search directions and their images
/// live in the solver's slabs (module docs).
struct Column {
    x: CVector,
    xt: CVector,
    r: CVector,
    rt: CVector,
    b_norm: f64,
    bt_norm: f64,
    /// `‖b‖`, `‖b̃‖` mapped out of a split system, when the operator is one.
    unsplit_norms: Option<[f64; 2]>,
    res: f64,
    res_dual: f64,
    history: Vec<f64>,
    dual_history: Vec<f64>,
    rho: Complex64,
    matvecs: usize,
    stop: StopReason,
    active: bool,
}

impl Column {
    /// Whether the residuals `[r, r̃]` (the recurrence's, or true ones),
    /// mapped out of the split system `a` stands for
    /// ([`LinearOperator::unsplit_residual_norm`]), meet `tol` relative to
    /// the mapped right-hand sides: always when `a` is no split system,
    /// never when a map is not finite.
    fn unsplit_passes<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        r: [&[Complex64]; 2],
        tol: f64,
    ) -> bool {
        let Some(norms) = self.unsplit_norms else { return true };
        (0..2).all(|s| a.unsplit_residual_norm(s == 1, r[s]).is_some_and(|m| m / norms[s] <= tol))
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

/// Pass 3 of an iteration on one column: `p ← z + βp`, `p̃ ← z̃ + β̄p̃`, in
/// place in the search-direction slabs.
fn redirect(
    beta: Complex64,
    z: &[Complex64],
    zt: &[Complex64],
    p: &mut [Complex64],
    pt: &mut [Complex64],
) {
    let n = p.len();
    let (z, zt, pt) = (&z[..n], &zt[..n], &mut pt[..n]);
    let beta_c = beta.conj();
    for i in 0..n {
        p[i] = z[i] + beta * p[i];
        pt[i] = zt[i] + beta_c * pt[i];
    }
}

/// Solve `A x_c = b_c` and `A† x̃_c = b̃_c` for all columns `c` in lockstep
/// with fused block matvecs, optionally preconditioned by `M ≈ A`.
///
/// With a preconditioner the search directions are built from the
/// preconditioned residuals `z = M⁻¹ r` and `z̃ = M⁻† r̃` (one blocked
/// [`Preconditioner::solve_block`] / [`solve_adjoint_block`] pass per
/// iteration over the live columns), while the residuals `r`, `r̃` of `a`
/// itself drive the stopping test, so the convergence contract (relative
/// residual ≤ tolerance) does not depend on `m`.  The adjoint solve
/// `M⁻†` on the dual side is what preserves the paper's dual-circle trick under
/// preconditioning: with `M ≈ P(z)`, `M† ≈ P(z)† = P(1/z̄)`, the operator of
/// the paired inner-circle node.  With `m = None` the same loop runs with
/// `z ≡ r`, `z̃ ≡ r̃` by reference.
///
/// An operator that stands for a split system `a = M_L⁻¹ A M_R⁻¹` (with
/// `m = None`, as on the ILU policy's stencil nodes in `cbs-core`) reports
/// through [`LinearOperator::unsplit_residual_norm`] the norms `‖M_L r‖`,
/// `‖M_R† r̃‖` of the residuals of `A` that its residuals `r`, `r̃` stand
/// for.  A column whose residuals pass then converges only if these mapped
/// residuals, relative to the mapped right-hand sides (`A`'s own), pass too,
/// and then the mapped true residuals `b − a x`, `b̃ − a† x̃` that the
/// recurrence's have drifted from: one fused apply per side over the
/// columns that got that far, counted in their matvecs and the traversals
/// (the maps count as neither).  A column that fails either keeps iterating
/// on the same recurrence, and a column the loop did not stop this way
/// ends unconverged.  An operator that reports `None` runs the plain test,
/// bit for bit.
///
/// Every column starts from `x₀ = x̃₀ = 0`.  `_seeds` and `_external_stop`
/// admit only `None`: vestiges of a per-column initial guess and of an
/// external stop that no solve uses any more, kept only because the repo
/// benchmark's one-node replay names them (released by ROADMAP 1(a)).
///
/// [`solve_adjoint_block`]: Preconditioner::solve_adjoint_block
pub fn bicg_dual_block_precond<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: Option<&M>,
    b: &[CVector],
    b_dual: &[CVector],
    _seeds: Option<Infallible>,
    opts: &SolverOptions,
    _external_stop: Option<Infallible>,
) -> BlockBicgResult {
    let n = a.dim();
    if let Some(m) = m {
        assert_eq!(m.dim(), n, "preconditioner dimension mismatch");
    }
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
                unsplit_norms: a
                    .unsplit_residual_norm(false, b[c].as_slice())
                    .zip(a.unsplit_residual_norm(true, b_dual[c].as_slice()))
                    .map(|(b, bt)| [b.max(1e-300), bt.max(1e-300)]),
                res: 0.0,
                res_dual: 0.0,
                history: Vec::new(),
                dual_history: Vec::new(),
                rho: Complex64::ZERO,
                matvecs: 0,
                stop: StopReason::MaxIterations,
                active: true,
            }
        })
        .collect();

    // The slabs (module docs): slot `k` of `p`, `p̃`, `q`, `q̃` belongs to
    // column `live[k]`; `z`, `z̃` are the preconditioner's output slabs and
    // `stage` packs per-column vectors for an apply or a solve.
    let mut live: Vec<usize> = (0..nvecs).collect();
    let (mut p, mut pt) = (Vec::new(), Vec::new());
    let (mut q, mut qt) = (Vec::new(), Vec::new());
    let (mut z, mut zt) = (Vec::new(), Vec::new());
    let mut stage: Vec<Complex64> = Vec::new();

    // p₀ = z₀ = M⁻¹ r₀, p̃₀ = z̃₀ = M⁻† r̃₀ (one blocked pass over all
    // columns), or r₀, r̃₀ themselves.
    if let Some(m) = m {
        p.resize(n * nvecs, Complex64::ZERO);
        pt.resize(n * nvecs, Complex64::ZERO);
        gather(&mut stage, cols.iter().map(|col| &col.r));
        m.solve_block(&stage, &mut p, nvecs);
        gather(&mut stage, cols.iter().map(|col| &col.rt));
        m.solve_adjoint_block(&stage, &mut pt, nvecs);
    } else {
        gather(&mut p, cols.iter().map(|col| &col.r));
        gather(&mut pt, cols.iter().map(|col| &col.rt));
    }
    for (c, col) in cols.iter_mut().enumerate() {
        col.rho = dotc(col.rt.as_slice(), slot(&p, n, c));
        col.res = col.r.norm() / col.b_norm;
        col.res_dual = col.rt.norm() / col.bt_norm;
        if opts.record_history {
            col.history.push(col.res);
            col.dual_history.push(col.res_dual);
        }
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
                col.active && col.res <= tol && col.res_dual <= tol && col.unsplit_passes(a, r, tol)
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
                col.unsplit_passes(a, [slot(&q, n, k), slot(&qt, n, k)], tol)
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

        // Passes 1 and 2 per column; without a preconditioner pass 3 too.
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
            if opts.record_history {
                col.history.push(col.res);
                col.dual_history.push(col.res_dual);
            }
            if m.is_none() {
                let beta = rho / col.rho;
                col.rho = rho;
                let (r, rt) = (col.r.as_slice(), col.rt.as_slice());
                redirect(beta, r, rt, slot_mut(&mut p, n, k), slot_mut(&mut pt, n, k));
            }
        }

        // With a preconditioner, the columns that survived the breakdown
        // check refresh z, z̃ in one blocked pass (the factor streams once
        // per iteration, not once per column), then ρ and their search
        // directions.
        let Some(m) = m else { continue };
        let survivors: Vec<usize> = (0..width).filter(|&k| cols[live[k]].active).collect();
        if survivors.is_empty() {
            continue;
        }
        z.resize(n * survivors.len(), Complex64::ZERO);
        zt.resize(n * survivors.len(), Complex64::ZERO);
        gather(&mut stage, survivors.iter().map(|&k| &cols[live[k]].r));
        m.solve_block(&stage, &mut z, survivors.len());
        gather(&mut stage, survivors.iter().map(|&k| &cols[live[k]].rt));
        m.solve_adjoint_block(&stage, &mut zt, survivors.len());
        for (j, &k) in survivors.iter().enumerate() {
            let col = &mut cols[live[k]];
            let rho = dotc(col.rt.as_slice(), slot(&z, n, j));
            let beta = rho / col.rho;
            col.rho = rho;
            redirect(
                beta,
                slot(&z, n, j),
                slot(&zt, n, j),
                slot_mut(&mut p, n, k),
                slot_mut(&mut pt, n, k),
            );
        }
    }

    // --- Epilogue, per column. --------------------------------------------
    let columns = cols
        .into_iter()
        .map(|mut col| {
            // A split system's columns converge only through the checks above.
            let converged = |res: f64| {
                col.stop == StopReason::Converged || (col.unsplit_norms.is_none() && res <= tol)
            };
            let (primal_conv, dual_conv) = (converged(col.res), converged(col.res_dual));
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
    use crate::bicg::bicg;
    use cbs_linalg::{c64, CMatrix};
    use cbs_sparse::{CooBuilder, CsrMatrix, DenseOp};
    use rand::SeedableRng;

    /// The reference the kernel is held to, column by column and bit for
    /// bit: the textbook single-vector dual BiCG (Saad Alg. 7.3; the
    /// Templates' preconditioned form), written against the *scalar*
    /// `apply` entry points and width-1 solves.  Test-only — production code
    /// has the one block kernel above.
    fn scalar_oracle<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
        a: &A,
        m: Option<&M>,
        b: &CVector,
        b_dual: &CVector,
        opts: &SolverOptions,
    ) -> BicgResult {
        let n = a.dim();
        let mut matvecs = 0usize;
        let (mut x, mut xt) = (CVector::zeros(n), CVector::zeros(n));
        let (mut r, mut rt) = (b.clone(), b_dual.clone());
        let precondition = |r: &CVector, rt: &CVector| match m {
            None => (r.clone(), rt.clone()),
            Some(m) => {
                let (mut z, mut zt) = (CVector::zeros(n), CVector::zeros(n));
                m.solve_block(r.as_slice(), z.as_mut_slice(), 1);
                m.solve_adjoint_block(rt.as_slice(), zt.as_mut_slice(), 1);
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

    /// The Jacobi preconditioner `M = diag(A)`: the preconditioned parity
    /// tests need some `M` with an adjoint, not a good one.
    struct Jacobi(Vec<Complex64>);

    impl Jacobi {
        fn of(a: &CsrMatrix) -> Self {
            Self(
                (0..a.nrows())
                    .map(|i| a.row_entries(i).find(|&(j, _)| j == i).unwrap().1)
                    .collect(),
            )
        }

        /// `z = M⁻¹ r` (`adjoint`: `M⁻† r`) over the first `nvecs` columns.
        fn divide(&self, adjoint: bool, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
            let n = self.0.len();
            for (zc, rc) in z.chunks_exact_mut(n).zip(r.chunks_exact(n)).take(nvecs) {
                for ((zi, ri), di) in zc.iter_mut().zip(rc).zip(&self.0) {
                    *zi = *ri / if adjoint { di.conj() } else { *di };
                }
            }
        }
    }

    impl Preconditioner for Jacobi {
        fn dim(&self) -> usize {
            self.0.len()
        }
        fn solve_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
            self.divide(false, r, z, nvecs);
        }
        fn solve_adjoint_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
            self.divide(true, r, z, nvecs);
        }
    }

    /// The unpreconditioned kernel call (`M` needs a type even when `None`).
    fn block_plain<A: LinearOperator + ?Sized>(
        a: &A,
        b: &[CVector],
        b_dual: &[CVector],
        opts: &SolverOptions,
    ) -> BlockBicgResult {
        bicg_dual_block_precond(a, None::<&Jacobi>, b, b_dual, None, opts, None)
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
            let single = scalar_oracle(&op, None::<&Jacobi>, &b[c], &bd[c], &opts);
            assert_bitwise_eq(col, &single);
        }
        assert!(block.columns.iter().enumerate().all(|(c, col)| c == 2 || col.both_converged()));
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
        assert!(block.traversals < block.total_matvecs());
    }

    #[test]
    fn width_one_block_is_the_scalar_solver() {
        // OBM's Green-column call: the dual right-hand side is the
        // right-hand side, and only the final residual is kept.
        let n = 25;
        let op = DenseOp::new(random_diag_dominant(n, 216));
        let b = rhs_block(n, 2, 217);
        let quiet = SolverOptions { record_history: false, ..SolverOptions::default() };
        let oracle = scalar_oracle(&op, None::<&Jacobi>, &b[0], &b[0], &quiet);
        let (x, history) = bicg(&op, &b[0], &quiet);
        assert_eq!(x, oracle.x);
        assert_eq!(history.residuals, [oracle.history.final_residual()]);
        assert_eq!(history.stop_reason, oracle.history.stop_reason);
        assert_eq!(history.matvecs, oracle.history.matvecs);

        let a = shifted_laplacian(n, c64(0.2, 0.5));
        let jacobi = Jacobi::of(&a);
        let opts = SolverOptions::default();
        let pre = bicg_dual_block_precond(&a, Some(&jacobi), &b[..1], &b[1..], None, &opts, None);
        let oracle = scalar_oracle(&a, Some(&jacobi), &b[0], &b[1], &opts);
        assert_bitwise_eq(&pre.columns[0], &oracle);
    }

    #[test]
    fn preconditioned_block_is_bitwise_the_oracle() {
        let n = 80;
        let a = shifted_laplacian(n, c64(0.15, 0.35));
        let jacobi = Jacobi::of(&a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(311);
        let x_true: Vec<CVector> = (0..4).map(|_| CVector::random(n, &mut rng)).collect();
        let b: Vec<CVector> = x_true.iter().map(|x| a.matvec(x)).collect();
        let bd: Vec<CVector> = x_true.iter().map(|x| a.matvec_adjoint(x)).collect();
        let opts = SolverOptions { tolerance: 1e-11, ..SolverOptions::default() };
        let block = bicg_dual_block_precond(&a, Some(&jacobi), &b, &bd, None, &opts, None);
        assert!(block.all_converged());
        for (c, pre) in block.columns.iter().enumerate() {
            let single = scalar_oracle(&a, Some(&jacobi), &b[c], &bd[c], &opts);
            assert_bitwise_eq(pre, &single);
            // Both the primal and the dual solutions solve their true systems.
            assert!((&pre.x - &x_true[c]).norm() / x_true[c].norm() < 1e-7);
            assert!((&pre.dual_x - &x_true[c]).norm() / x_true[c].norm() < 1e-7);
        }
        // The block path still fuses matvecs.
        assert!(block.traversals < block.total_matvecs());
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
        let jacobi = Jacobi::of(&a);
        let opts = SolverOptions { tolerance: 1e-11, max_iterations: 60, record_history: true };
        for (width, poisoned) in [(1usize, 0usize), (4, 1)] {
            let b = rhs_block(n, width, 317);
            for m in [None, Some(&jacobi)] {
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
        let jacobi = Jacobi::of(&a);
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
        for m in [None, Some(&jacobi)] {
            let label = format!("precond {}", m.is_some());
            let recorder = Tripwire { inner: &a, trigger: Vec::new(), seen: Vec::new().into() };
            scalar_oracle(&recorder, m, &b[6], &bd[6], &opts);
            let trigger = recorder.seen.into_inner().unwrap().swap_remove(2);
            let faulty = Tripwire { inner: &a, trigger, seen: Vec::new().into() };
            let block = bicg_dual_block_precond(&faulty, m, &b, &bd, None, &opts, None);
            for (c, col) in block.columns.iter().enumerate() {
                assert_bitwise_eq(col, &scalar_oracle(&faulty, m, &b[c], &bd[c], &opts));
            }
            let cols = &block.columns;
            assert_eq!(cols[4].history.iterations(), 0, "{label}");
            assert_eq!(cols[6].history.stop_reason, StopReason::Breakdown, "{label}");
            assert_eq!(cols[6].history.iterations(), 2, "{label}");
            assert!(cols.iter().enumerate().all(|(c, col)| c == 6 || col.both_converged()));
            let mut iters: Vec<usize> = cols.iter().map(|c| c.history.iterations()).collect();
            iters.sort_unstable();
            iters.dedup();
            assert!(iters.len() >= 6, "{label}: columns left together: {iters:?}");
        }
    }

    /// A `DenseOp` that stands for a system scaled row by row: it reports
    /// `‖D r‖` for a residual `r` — NaN for the calls `nan_at` picks by
    /// their index — and logs every report in order.
    struct RowScaled<'a> {
        inner: &'a DenseOp,
        scale: &'a [f64],
        nan_at: &'a (dyn Fn(usize) -> bool + Sync),
        log: std::sync::Mutex<Vec<(bool, f64)>>,
    }

    impl LinearOperator for RowScaled<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.inner.apply(x, y);
        }
        fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
            self.inner.apply_adjoint(x, y);
        }
        fn unsplit_residual_norm(&self, dual: bool, r: &[Complex64]) -> Option<f64> {
            let scaled: f64 = r.iter().zip(self.scale).map(|(v, d)| v.scale(*d).norm_sqr()).sum();
            let mut log = self.log.lock().unwrap();
            let norm = if (self.nan_at)(log.len()) { f64::NAN } else { scaled.sqrt() };
            log.push((dual, norm));
            Some(norm)
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
        let run = |c: usize, nan_at: &(dyn Fn(usize) -> bool + Sync), opts: &SolverOptions| {
            let op = RowScaled { inner: &op, scale: &scale, nan_at, log: Vec::new().into() };
            let mut out = block_plain(&op, &b[c..=c], &bd[c..=c], opts);
            (out.columns.pop().unwrap(), op.log.into_inner().unwrap())
        };

        let mut longer = 0;
        let plain = block_plain(&op, &b, &bd, &opts);
        let mapped =
            RowScaled { inner: &op, scale: &scale, nan_at: &|_| false, log: Vec::new().into() };
        let block = block_plain(&mapped, &b, &bd, &opts);
        for (c, plain) in plain.columns.iter().enumerate() {
            // Alone, the column is the block's: the same recurrence as
            // without the map, run for longer ...
            let (col, log) = run(c, &|_| false, &opts);
            assert_bitwise_eq(&col, &block.columns[c]);
            let (h, hd) = (&col.history.residuals, &col.dual_history.residuals);
            assert_eq!(h[..plain.history.residuals.len()], plain.history.residuals[..]);
            assert_eq!(hd[..plain.dual_history.residuals.len()], plain.dual_history.residuals[..]);
            assert!(col.both_converged(), "column {c}");
            longer += usize::from(h.len() > plain.history.residuals.len());

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
            for j in (0..=last).filter(|&j| h[j] <= tol && hd[j] <= tol) {
                let mapped = both();
                let confirmed = mapped && both();
                assert_eq!((mapped, confirmed), (j == last, j == last), "column {c} iteration {j}");
            }
            assert!(log.next().is_none(), "column {c}: a map after the stop");

            // A rejected true-residual check keeps the column iterating on
            // the same recurrence, to the next iteration that passes all.
            let (later, _) = run(c, &|k| k == checks - 2, &opts);
            assert!(later.both_converged(), "column {c}");
            assert!(later.history.residuals.len() > h.len(), "column {c}");
            assert_eq!(later.history.residuals[..h.len()], h[..], "column {c}");

            // A map that never comes back finite never lets it converge.
            let (never, _) = run(c, &|_| true, &SolverOptions { max_iterations: 60, ..opts });
            assert_eq!(never.history.stop_reason, StopReason::MaxIterations);
            assert_eq!(never.dual_history.stop_reason, StopReason::MaxIterations);
            assert_eq!(never.history.residuals[..h.len()], h[..], "column {c}");
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
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 12, record_history: false };
        let block = block_plain(&op, &b, &b, &opts);
        assert_eq!(block.traversals, 2 * 12);
        assert_eq!(block.total_matvecs(), nvecs * block.traversals);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let op = DenseOp::new(random_diag_dominant(8, 310));
        let out = block_plain(&op, &[], &[], &SolverOptions::default());
        assert!(out.columns.is_empty());
        assert_eq!(out.traversals, 0);
    }
}

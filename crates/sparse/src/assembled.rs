//! The assembled shifted operator: `P(z) = -z⁻¹H₀₁† + (E−H₀₀) − zH₀₁` as a
//! single CSR matrix with a shared symbolic pattern.
//!
//! The generic matrix-free QEP operator walks three sparse stores per
//! application (`H₀₀`, `H₀₁`, `H₀₁†`).  Since the contour solves apply
//! `P(z)` thousands of times per quadrature node, those traversals dominate
//! the whole Sakurai-Sugiura run.  This module trades one symbolic analysis
//! per Hamiltonian for a single-traversal matvec — and, unlike the
//! matrix-free [`RealStencil`](crate::RealStencil), for a matrix an ILU can
//! factor:
//!
//! * [`AssembledPattern::build`] computes the **union pattern** of
//!   `H₀₀ ∪ H₀₁ ∪ H₀₁† ∪ diag` once and stores the three source value
//!   streams aligned to it.  The pattern depends only on the Hamiltonian —
//!   it is shared across *all* quadrature nodes and *all* scan energies of a
//!   sweep.
//! * [`AssembledPattern::assemble`] materializes `P(z)` for one `(E, z)` by
//!   a **numeric refill only**: one fused O(nnz) pass over the three
//!   streams (into a scratch-pooled value buffer — steady state performs no
//!   allocation), no symbolic work, no index duplication.  The resulting
//!   [`AssembledOp`] applies `P(z)` (and its exact adjoint) in a single CSR
//!   traversal via the same fused kernels `CsrMatrix` uses.
//! * [`Ilu0`] ([`AssembledOp::ilu0`]) is the diagonal ILU of the assembled
//!   CSR — the elimination updates only the pivots — stored as factors over
//!   the pattern, with forward/backward triangular solves *and their
//!   adjoints*, so one factorization `M ≈ P(z)` also preconditions the dual
//!   system through `M† ≈ P(z)† = P(1/z̄)` — the paper's dual-circle trick
//!   survives preconditioning.  All four substitutions are **streaming
//!   sweeps**: the rows are visited in storage order, blocked over
//!   right-hand sides, the adjoints as column scatters over the same CSR
//!   rows — bit-identical to the textbook one-column loops.  Blocks that
//!   convert to a [`RealStencil`](crate::RealStencil) get the same
//!   preconditioner without a refill ([`RealStencil::dilu`](crate::RealStencil::dilu)).

// A hot per-node module: `clippy.toml`'s allocation rule holds here.
// Setup-time allocations carry an `expect` with the reason.
#![deny(clippy::disallowed_macros, clippy::disallowed_methods)]

use std::borrow::Cow;
use std::sync::OnceLock;

use cbs_linalg::{CVector, Complex64};
use cbs_trace::Stage;

use crate::csr::{
    spmv_adjoint_block_into, spmv_adjoint_into, spmv_block_into, spmv_into, CsrMatrix, ROW_BLOCK,
};
use crate::ops::{LinearOperator, Preconditioner};

/// The shared symbolic structure of `P(z)`: the union sparsity pattern of
/// `H₀₀`, `H₀₁`, `H₀₁†` (plus an explicit diagonal for the `E` shift), with
/// the three source value streams stored aligned to it so a refill is one
/// fused pass.
#[derive(Clone, Debug)]
pub struct AssembledPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// `H₀₀` values scattered onto the union pattern (zero where absent).
    h00_vals: Vec<Complex64>,
    /// `H₀₁` values scattered onto the union pattern.
    h01_vals: Vec<Complex64>,
    /// `H₁₀ = H₀₁†` values scattered onto the union pattern.
    h10_vals: Vec<Complex64>,
    /// Position of the diagonal entry of each row in `col_idx`/values.
    diag_idx: Vec<usize>,
    /// The pattern's [`TriSchedule`], computed on first request.
    schedule: OnceLock<TriSchedule>,
}

impl AssembledPattern {
    /// Compute the union pattern of the two Hamiltonian blocks (both square,
    /// same size).  The diagonal is always part of the pattern, so the
    /// energy shift `E` and the ILU pivots have a home even where the
    /// blocks store no diagonal entry.
    pub fn build(h00: &CsrMatrix, h01: &CsrMatrix) -> Self {
        assert_eq!(h00.nrows(), h00.ncols(), "H00 must be square");
        assert_eq!(h01.nrows(), h01.ncols(), "H01 must be square");
        assert_eq!(h00.nrows(), h01.nrows(), "H00 and H01 must have the same size");
        let h10 = h01.adjoint();
        Self::from_rows(
            h00.nrows(),
            |i| h00.row_entries(i),
            |i| h01.row_entries(i),
            |i| h10.row_entries(i),
        )
    }

    /// The union pattern of `H₀₀`, `H₀₁` and `H₁₀` given as row sources
    /// (`(column, value)` pairs, each column at most once per row), refilled
    /// as [`build`](Self::build) refills it.
    pub(crate) fn from_rows<R00, R01, R10>(
        n: usize,
        h00: impl Fn(usize) -> R00,
        h01: impl Fn(usize) -> R01,
        h10: impl Fn(usize) -> R10,
    ) -> Self
    where
        R00: Iterator<Item = (usize, Complex64)>,
        R01: Iterator<Item = (usize, Complex64)>,
        R10: Iterator<Item = (usize, Complex64)>,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "pattern assembly, once per operator -- not on the per-apply path"
        )]
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<usize> = Vec::new();
        let mut h00_vals: Vec<Complex64> = Vec::new();
        let mut h01_vals: Vec<Complex64> = Vec::new();
        let mut h10_vals: Vec<Complex64> = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "pattern assembly, once per operator -- not on the per-apply path"
        )]
        let mut diag_idx = Vec::with_capacity(n);

        let mut cols: Vec<usize> = Vec::new();
        for i in 0..n {
            cols.clear();
            cols.extend(h00(i).map(|(j, _)| j));
            cols.extend(h01(i).map(|(j, _)| j));
            cols.extend(h10(i).map(|(j, _)| j));
            cols.push(i);
            cols.sort_unstable();
            cols.dedup();

            let base = col_idx.len();
            col_idx.extend_from_slice(&cols);
            h00_vals.resize(col_idx.len(), Complex64::ZERO);
            h01_vals.resize(col_idx.len(), Complex64::ZERO);
            h10_vals.resize(col_idx.len(), Complex64::ZERO);
            for (j, v) in h00(i) {
                h00_vals[base + cols.binary_search(&j).expect("union pattern covers H00")] = v;
            }
            for (j, v) in h01(i) {
                h01_vals[base + cols.binary_search(&j).expect("union pattern covers H01")] = v;
            }
            for (j, v) in h10(i) {
                h10_vals[base + cols.binary_search(&j).expect("union pattern covers H10")] = v;
            }
            diag_idx.push(base + cols.binary_search(&i).expect("diagonal is in the pattern"));
            row_ptr.push(col_idx.len());
        }

        Self {
            n,
            row_ptr,
            col_idx,
            h00_vals,
            h01_vals,
            h10_vals,
            diag_idx,
            schedule: OnceLock::new(),
        }
    }

    /// Dimension of the (square) operator.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries of the union pattern.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// CSR row pointers of the union pattern (`dim() + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// CSR column indices of the union pattern, ascending within each row.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// `true` when the `H₀₀` and `H₀₁` value streams are real (`H₁₀ =
    /// H₀₁†` is then real too), so every operator refilled from this
    /// pattern satisfies `P(z̄) = conj P(z)` — the pattern's share of
    /// `cbs_core::QepProblem`'s conjugate-symmetry decision.
    pub fn is_real(&self) -> bool {
        crate::ops::all_real(&self.h00_vals) && crate::ops::all_real(&self.h01_vals)
    }

    /// Storage footprint of the pattern (indices + the three value streams).
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.diag_idx.len() * std::mem::size_of::<usize>()
            + 3 * self.h00_vals.len() * std::mem::size_of::<Complex64>()
    }

    /// The dependency-level structure of this pattern's triangular solves,
    /// computed on first use.  A vestige: no solve reads it (see
    /// [`TriSchedule`]).
    pub fn tri_schedule(&self) -> &TriSchedule {
        self.schedule
            .get_or_init(|| TriSchedule::build(&self.row_ptr, &self.col_idx, &self.diag_idx))
    }

    /// Materialize `P(z) = -z⁻¹H₀₁† + (E−H₀₀) − zH₀₁` at one `(E, z)` pair
    /// by numeric refill: a single fused pass over the three value streams
    /// plus the diagonal shift.  The symbolic structure is borrowed, not
    /// copied — every node of every sweep energy shares it — and the value
    /// buffer is drawn from (and on drop returned to) the thread-local
    /// scratch pool, so per-node assembly performs no steady-state
    /// allocation.
    pub fn assemble(&self, energy: f64, z: Complex64) -> AssembledOp<'_> {
        cbs_trace::timed(Stage::Assemble, || {
            let zinv = z.inv();
            let mut values = crate::scratch::take_scratch(0);
            values.reserve(self.nnz());
            values.extend(
                self.h00_vals
                    .iter()
                    .zip(&self.h01_vals)
                    .zip(&self.h10_vals)
                    .map(|((&v00, &v01), &v10)| -v00 - z * v01 - zinv * v10),
            );
            let e = Complex64::real(energy);
            for &d in &self.diag_idx {
                values[d] += e;
            }
            AssembledOp { pattern: self, z, values }
        })
    }
}

/// One materialized `P(z)`: the pattern's indices plus a private value
/// array.  Applies in a single CSR traversal ([`traversal_weight`] 1, vs 3
/// for the matrix-free QEP operator) through the same fused kernels as
/// [`CsrMatrix`], adjoint included (exact conjugate-transpose scatter, no
/// Hermiticity assumption).
///
/// [`traversal_weight`]: LinearOperator::traversal_weight
pub struct AssembledOp<'p> {
    pattern: &'p AssembledPattern,
    z: Complex64,
    values: Vec<Complex64>,
}

impl<'p> AssembledOp<'p> {
    /// The shift this operator was assembled at.
    pub fn shift(&self) -> Complex64 {
        self.z
    }

    /// The assembled entry values (aligned with the pattern's indices).
    pub fn values(&self) -> &[Complex64] {
        &self.values
    }

    /// The shared symbolic pattern.
    pub fn pattern(&self) -> &'p AssembledPattern {
        self.pattern
    }

    /// The diagonal ILU of this operator ([`Ilu0`]).  The factorization
    /// borrows the shared pattern (reusing its precomputed diagonal
    /// positions — no per-node rescan) and owns only its `nnz` factor
    /// values (scratch-pooled across nodes).
    pub fn ilu0(&self) -> Ilu0<'p> {
        Ilu0::factor_in_place(
            &self.pattern.row_ptr,
            &self.pattern.col_idx,
            Cow::Borrowed(&self.pattern.diag_idx[..]),
            crate::scratch::copy_to_scratch(&self.values),
        )
    }
}

impl Drop for AssembledOp<'_> {
    fn drop(&mut self) {
        crate::scratch::recycle_scratch(std::mem::take(&mut self.values));
    }
}

impl LinearOperator for AssembledOp<'_> {
    fn nrows(&self) -> usize {
        self.pattern.n
    }
    fn ncols(&self) -> usize {
        self.pattern.n
    }
    fn apply(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.pattern.n, "assembled apply: x length mismatch");
        assert_eq!(y.len(), self.pattern.n, "assembled apply: y length mismatch");
        let p = self.pattern;
        cbs_trace::timed(Stage::Kernel, || spmv_into(&p.row_ptr, &p.col_idx, &self.values, x, y));
    }
    fn apply_adjoint(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(x.len(), self.pattern.n, "assembled adjoint: x length mismatch");
        assert_eq!(y.len(), self.pattern.n, "assembled adjoint: y length mismatch");
        let p = self.pattern;
        cbs_trace::timed(Stage::Kernel, || {
            spmv_adjoint_into(&p.row_ptr, &p.col_idx, &self.values, x, y);
        });
    }
    fn apply_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        let n = self.pattern.n;
        assert_eq!(x.len(), n * nvecs, "assembled block apply: x slab length mismatch");
        assert_eq!(y.len(), n * nvecs, "assembled block apply: y slab length mismatch");
        let p = self.pattern;
        cbs_trace::timed(Stage::Kernel, || {
            spmv_block_into(&p.row_ptr, &p.col_idx, &self.values, n, n, x, y, nvecs);
        });
    }
    fn apply_adjoint_block(&self, x: &[Complex64], y: &mut [Complex64], nvecs: usize) {
        let n = self.pattern.n;
        assert_eq!(x.len(), n * nvecs, "assembled block adjoint: x slab length mismatch");
        assert_eq!(y.len(), n * nvecs, "assembled block adjoint: y slab length mismatch");
        let p = self.pattern;
        cbs_trace::timed(Stage::Kernel, || {
            spmv_adjoint_block_into(&p.row_ptr, &p.col_idx, &self.values, n, n, x, y, nvecs);
        });
    }
    fn memory_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Complex64>() + self.pattern.memory_bytes()
    }
    fn traversal_weight(&self) -> usize {
        1
    }
}

/// The dependency-level structure of one assembled pattern's triangular
/// solves ([`AssembledPattern::tri_schedule`]): for each of the four sweeps
/// (forward `L`, backward `U`, adjoint-forward `U†`, adjoint-backward `L†`)
/// the rows (resp. columns) grouped into dependency levels, plus the
/// strict-upper and strict-lower transpose lists that turn the adjoint
/// column scatters into gathers.  Pattern-only, no values.
///
/// **A vestige.**  [`Ilu0`] streams the rows in storage order, which needs
/// no schedule, and the level walk that read this one is deleted: on the
/// 12167-point Al(100) pattern it cost 2.7 / 3.1 ns per nnz·column before
/// any thread, against 1.2 / 1.1 ns streaming.  The analysis stays only
/// because the `benchmark/` package times it (`sparse.tri_schedule_ms`);
/// it goes with that line (ROADMAP item 1(a)).
#[derive(Clone, Debug)]
pub struct TriSchedule {
    /// Forward (`L y = r`) levels: `fwd_rows[fwd_level_ptr[l]..fwd_level_ptr[l+1]]`.
    fwd_level_ptr: Vec<usize>,
    fwd_rows: Vec<usize>,
    /// Backward (`U x = y`) levels.
    bwd_level_ptr: Vec<usize>,
    bwd_rows: Vec<usize>,
    /// Adjoint-forward (`U† w = r`) levels over columns.
    utf_level_ptr: Vec<usize>,
    utf_cols: Vec<usize>,
    /// Adjoint-backward (`L† x = w`) levels over columns.
    ltb_level_ptr: Vec<usize>,
    ltb_cols: Vec<usize>,
    /// Strict-upper transpose: for column `j`, the rows `i < j` with
    /// `(i, j) ∈ U` (ascending `i`) and the position of `U[i,j]` in `lu`.
    ut_ptr: Vec<usize>,
    ut_row: Vec<usize>,
    ut_pos: Vec<usize>,
    /// Strict-lower transpose: for column `j`, the rows `i > j` with
    /// `(i, j) ∈ L` (ascending `i`) and the position of `L[i,j]` in `lu`.
    lt_ptr: Vec<usize>,
    lt_row: Vec<usize>,
    lt_pos: Vec<usize>,
}

/// Group `0..n` into levels by `lvl` (counting sort; ascending within level).
fn bucket_levels(lvl: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = lvl.len();
    let n_levels = lvl.iter().copied().max().map_or(0, |m| m + 1);
    #[expect(clippy::disallowed_macros, reason = "level-schedule counting sort, once per pattern")]
    let mut ptr = vec![0usize; n_levels + 1];
    for &l in lvl {
        ptr[l + 1] += 1;
    }
    for l in 0..n_levels {
        ptr[l + 1] += ptr[l];
    }
    #[expect(clippy::disallowed_macros, reason = "level-schedule counting sort, once per pattern")]
    let mut rows = vec![0usize; n];
    let mut next = ptr.clone();
    for (i, &l) in lvl.iter().enumerate() {
        rows[next[l]] = i;
        next[l] += 1;
    }
    (ptr, rows)
}

impl TriSchedule {
    /// Analyze a CSR triangle pattern (columns sorted within each row,
    /// every diagonal stored at `diag_idx`).
    pub fn build(row_ptr: &[usize], col_idx: &[usize], diag_idx: &[usize]) -> Self {
        let n = row_ptr.len() - 1;

        // Forward (L): row i depends on its sub-diagonal columns.
        #[expect(clippy::disallowed_macros, reason = "schedule analysis scratch, once per pattern")]
        let mut lvl = vec![0usize; n];
        for i in 0..n {
            let mut m = 0usize;
            for k in row_ptr[i]..diag_idx[i] {
                m = m.max(lvl[col_idx[k]] + 1);
            }
            lvl[i] = m;
        }
        let (fwd_level_ptr, fwd_rows) = bucket_levels(&lvl);

        // Backward (U): row i depends on its super-diagonal columns.
        for i in (0..n).rev() {
            let mut m = 0usize;
            for k in (diag_idx[i] + 1)..row_ptr[i + 1] {
                m = m.max(lvl[col_idx[k]] + 1);
            }
            lvl[i] = m;
        }
        let (bwd_level_ptr, bwd_rows) = bucket_levels(&lvl);

        // Strict-triangle transposes (counting sort; pushing rows in
        // ascending i keeps each column's list sorted by row).
        #[expect(
            clippy::disallowed_macros,
            reason = "strict-triangle transpose build, once per pattern"
        )]
        let mut ut_ptr = vec![0usize; n + 1];
        #[expect(
            clippy::disallowed_macros,
            reason = "strict-triangle transpose build, once per pattern"
        )]
        let mut lt_ptr = vec![0usize; n + 1];
        for i in 0..n {
            for k in row_ptr[i]..diag_idx[i] {
                lt_ptr[col_idx[k] + 1] += 1;
            }
            for k in (diag_idx[i] + 1)..row_ptr[i + 1] {
                ut_ptr[col_idx[k] + 1] += 1;
            }
        }
        for j in 0..n {
            ut_ptr[j + 1] += ut_ptr[j];
            lt_ptr[j + 1] += lt_ptr[j];
        }
        #[expect(
            clippy::disallowed_macros,
            reason = "strict-triangle transpose build, once per pattern"
        )]
        let mut ut_row = vec![0usize; ut_ptr[n]];
        #[expect(
            clippy::disallowed_macros,
            reason = "strict-triangle transpose build, once per pattern"
        )]
        let mut ut_pos = vec![0usize; ut_ptr[n]];
        #[expect(
            clippy::disallowed_macros,
            reason = "strict-triangle transpose build, once per pattern"
        )]
        let mut lt_row = vec![0usize; lt_ptr[n]];
        #[expect(
            clippy::disallowed_macros,
            reason = "strict-triangle transpose build, once per pattern"
        )]
        let mut lt_pos = vec![0usize; lt_ptr[n]];
        let mut ut_next = ut_ptr.clone();
        let mut lt_next = lt_ptr.clone();
        for i in 0..n {
            for (k, &j) in col_idx.iter().enumerate().take(diag_idx[i]).skip(row_ptr[i]) {
                lt_row[lt_next[j]] = i;
                lt_pos[lt_next[j]] = k;
                lt_next[j] += 1;
            }
            for (k, &j) in col_idx.iter().enumerate().take(row_ptr[i + 1]).skip(diag_idx[i] + 1) {
                ut_row[ut_next[j]] = i;
                ut_pos[ut_next[j]] = k;
                ut_next[j] += 1;
            }
        }

        // Adjoint-forward (U† w = r): column j depends on rows i < j with
        // (i, j) ∈ U — exactly its strict-upper transpose list.
        for j in 0..n {
            let mut m = 0usize;
            for t in ut_ptr[j]..ut_ptr[j + 1] {
                m = m.max(lvl[ut_row[t]] + 1);
            }
            lvl[j] = m;
        }
        let (utf_level_ptr, utf_cols) = bucket_levels(&lvl);

        // Adjoint-backward (L† x = w): column j depends on rows i > j with
        // (i, j) ∈ L — its strict-lower transpose list.
        for j in (0..n).rev() {
            let mut m = 0usize;
            for t in lt_ptr[j]..lt_ptr[j + 1] {
                m = m.max(lvl[lt_row[t]] + 1);
            }
            lvl[j] = m;
        }
        let (ltb_level_ptr, ltb_cols) = bucket_levels(&lvl);

        Self {
            fwd_level_ptr,
            fwd_rows,
            bwd_level_ptr,
            bwd_rows,
            utf_level_ptr,
            utf_cols,
            ltb_level_ptr,
            ltb_cols,
            ut_ptr,
            ut_row,
            ut_pos,
            lt_ptr,
            lt_row,
            lt_pos,
        }
    }

    /// Storage footprint of the schedule in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<usize>()
            * (self.fwd_level_ptr.len()
                + self.fwd_rows.len()
                + self.bwd_level_ptr.len()
                + self.bwd_rows.len()
                + self.utf_level_ptr.len()
                + self.utf_cols.len()
                + self.ltb_level_ptr.len()
                + self.ltb_cols.len()
                + self.ut_ptr.len()
                + self.ut_row.len()
                + self.ut_pos.len()
                + self.lt_ptr.len()
                + self.lt_row.len()
                + self.lt_pos.len())
    }
}

/// Floor applied to vanishing ILU pivots, *relative to the matrix scale*
/// `max|aᵢⱼ|`, so a (near-)singular pivot row degrades the preconditioner
/// gracefully instead of poisoning it: an absolute floor like 1e-300 would
/// produce ~1e300-scale factors that overflow to Inf in the update sweep
/// and turn into NaN downstream.  With `floor = 1e-14 · max|aᵢⱼ|` the
/// substituted pivot keeps every factor finite (≲ 1e14× the matrix scale),
/// and the preconditioned BiCG's non-finite breakdown checks catch any
/// remaining degeneracy as [`Breakdown`](../../cbs_solver) rather than
/// iterating on garbage.  One rule for both storage forms of the diagonal
/// ILU ([`Ilu0`], [`RealStencil::dilu`](crate::RealStencil::dilu)).
pub(crate) fn pivot_floor(scale: f64) -> f64 {
    (scale * 1e-14).max(1e-300)
}

pub(crate) fn guarded(pivot: Complex64, floor: f64) -> Complex64 {
    if pivot.abs() < floor {
        Complex64::real(floor)
    } else {
        pivot
    }
}

/// The four triangular sweeps of an [`Ilu0`] apply.
#[derive(Clone, Copy)]
enum Sweep {
    /// `L y = r` (unit diagonal), rows ascending, gather.
    Forward,
    /// `U x = y`, rows descending, gather.
    Backward,
    /// `U† w = r`, rows of `U` ascending, scatter.
    AdjointForward,
    /// `L† x = w` (unit diagonal), rows of `L` descending, scatter.
    AdjointBackward,
}

/// The complex **diagonal ILU** of `A` in factored form,
/// `M = (D̃+L) D̃⁻¹ (D̃+U)`: `L`, `U` are the strict triangles of `A`
/// itself and the elimination updates only the pivots,
/// `d̃ᵢ = aᵢᵢ − Σ_{j<i} aᵢⱼ aⱼᵢ / d̃ⱼ`.  The unit lower factor `I + L D̃⁻¹`
/// and the upper factor `D̃ + U` are stored in one value array over the
/// borrowed pattern, so the sweeps are those of any ILU(0) factorization.  (The
/// name predates the diagonal form.  Full ILU(0), which also updates the
/// off-diagonal entries, needs about as many iterations on these systems
/// — the diagonal form takes 2.3–2.6% fewer on the benchmark's
/// `al12k_solve_ilu0` and 4.8–5.3% more on `al100_sweep8` — and cannot be
/// applied without its `nnz` factors.  Blocks that convert to a
/// [`RealStencil`](crate::RealStencil) apply this same preconditioner from
/// `n` pivots over the stencil's rows, [`RealStencil::dilu`](crate::RealStencil::dilu).)
///
/// [`solve`](Preconditioner::solve) runs the forward/backward substitutions
/// `z = U⁻¹ L⁻¹ r`; [`solve_adjoint`](Preconditioner::solve_adjoint) runs
/// the exact adjoint `z = L⁻† U⁻† r` — which is what preconditions the dual
/// BiCG system `P(z)† x̃ = ṽ` with the *same* factorization.
///
/// # The streaming sweeps
///
/// All four entry points (`solve`, `solve_adjoint` and their `_block`
/// forms; width 1 is the degenerate slab) run one kernel: the rows are
/// visited in **storage order** (`0..n` or `n..0`), so `lu` and `col_idx`
/// are read contiguously exactly like an SpMM, and the slab advances in
/// 4/2/1-wide column tiles (entry-outer / column-inner: each factor value
/// and index loads once per tile).  The forward/backward sweeps gather
/// along each row; the adjoint sweeps are column **scatters over the same
/// CSR rows** (`z[col] -= conj(lu[k])·w`, one zero-skip per column), so no
/// transposed index list is touched.  The rows are walked in
/// `ROW_BLOCK`-row (512) blocks with the column tiles inside, so a slab wider
/// than one tile re-reads each factor block from cache.  An apply allocates
/// nothing.
///
/// Every output element receives the same updates in the same order as in
/// the textbook one-column substitution — tiling only reorders independent
/// elements — so the result is bitwise that of the substitution, whatever
/// the slab width (`tests/properties.rs`).
///
/// What the four sweeps cost is what the stencil form removes.  On the
/// 12167-point Al(100) pattern (nnz 298 885, 4 columns; benchmark workload
/// `al12k_solve_ilu0`) they stream 4.6 MiB of complex factors at 1.3–1.7 ns
/// per nnz·column — 65% of that workload's wall while the ILU policy used
/// them, against the 12 B per entry of the stencil's real rows.  No
/// production path applies them any more on a Hamiltonian `cbs-dft`
/// builds; they remain the preconditioner of blocks that do not convert,
/// and the oracle of the stencil form.
pub struct Ilu0<'p> {
    n: usize,
    row_ptr: &'p [usize],
    col_idx: &'p [usize],
    diag_idx: Cow<'p, [usize]>,
    lu: Vec<Complex64>,
    /// Scale-relative pivot floor fixed at factor time (see [`pivot_floor`]).
    floor: f64,
}

impl<'p> Ilu0<'p> {
    /// Factor a CSR triple (columns sorted within each row, every diagonal
    /// entry stored).
    pub fn factor(row_ptr: &'p [usize], col_idx: &'p [usize], values: &[Complex64]) -> Self {
        let n = row_ptr.len() - 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "diagonal positions of a standalone CSR, once per factorization -- not the per-node path"
        )]
        let diag_idx = (0..n)
            .map(|i| {
                let row = row_ptr[i]..row_ptr[i + 1];
                let at = col_idx[row.clone()].iter().position(|&c| c == i);
                row.start + at.unwrap_or_else(|| panic!("ILU requires a stored diagonal (row {i})"))
            })
            .collect();
        let lu = crate::scratch::copy_to_scratch(values);
        Self::factor_in_place(row_ptr, col_idx, Cow::Owned(diag_idx), lu)
    }

    /// The factorization kernel, in place in `lu` — the matrix values on
    /// entry, the factors on return (recycled to the thread-local scratch
    /// pool on drop, so per-node factorizations perform no steady-state
    /// allocation).  For each row `i` and each sub-diagonal entry `aᵢₖ`:
    /// `lᵢₖ = aᵢₖ / d̃ₖ`, and `d̃ᵢ −= lᵢₖ aₖᵢ` when the pattern stores `aₖᵢ`
    /// — nothing else is updated.
    fn factor_in_place(
        row_ptr: &'p [usize],
        col_idx: &'p [usize],
        diag_idx: Cow<'p, [usize]>,
        mut lu: Vec<Complex64>,
    ) -> Self {
        let n = row_ptr.len() - 1;
        assert_eq!(col_idx.len(), lu.len(), "ILU: pattern/value length mismatch");
        assert_eq!(diag_idx.len(), n, "ILU: diagonal index length mismatch");
        cbs_trace::timed(Stage::IluFactor, || {
            let floor = pivot_floor(lu.iter().map(|v| v.abs()).fold(0.0f64, f64::max));
            for i in 0..n {
                for kk in row_ptr[i]..diag_idx[i] {
                    let k = col_idx[kk];
                    let factor = lu[kk] / guarded(lu[diag_idx[k]], floor);
                    lu[kk] = factor;
                    let upper = diag_idx[k] + 1..row_ptr[k + 1];
                    if let Ok(at) = col_idx[upper.clone()].binary_search(&i) {
                        let update = factor * lu[upper.start + at];
                        lu[diag_idx[i]] -= update;
                    }
                }
            }
            Self { n, row_ptr, col_idx, diag_idx, lu, floor }
        })
    }

    /// Factor an explicit CSR matrix (tests / standalone preconditioning).
    pub fn from_csr(m: &'p CsrMatrix) -> Self {
        assert_eq!(m.nrows(), m.ncols(), "ILU requires a square matrix");
        Self::factor(m.row_ptr(), m.col_idx(), m.values())
    }

    /// The factor values, aligned with the pattern's indices: in each row
    /// the strict-lower entries hold `L` (unit diagonal implied), the
    /// diagonal and strict-upper entries hold `U`.
    pub fn lu(&self) -> &[Complex64] {
        &self.lu
    }

    /// Storage footprint of the factor values (the pattern is shared).
    pub fn memory_bytes(&self) -> usize {
        self.lu.len() * std::mem::size_of::<Complex64>()
            + self.diag_idx.len() * std::mem::size_of::<usize>()
    }

    /// Apply `M⁻¹` to a [`CVector`] (allocating convenience wrapper).
    pub fn solve_vec(&self, r: &CVector) -> CVector {
        let mut z = CVector::zeros(self.n);
        self.solve(r.as_slice(), z.as_mut_slice());
        z
    }

    /// The guarded pivot of row `i`.
    #[inline(always)]
    fn pivot(&self, i: usize) -> Complex64 {
        guarded(self.lu[self.diag_idx[i]], self.floor)
    }

    /// One sweep over the rows `rows` of the leading `W`-column tile of
    /// `slab`, in place; returns the rest of the slab.
    ///
    /// Entry-outer / column-inner: every factor value and column index
    /// loads once for the whole tile, and every column replays its
    /// one-column update chain in the same order.
    #[inline(always)]
    fn sweep_tile<'z, const W: usize>(
        &self,
        sweep: Sweep,
        rows: std::ops::Range<usize>,
        slab: &'z mut [Complex64],
    ) -> &'z mut [Complex64] {
        let (tile, rest) = slab.split_at_mut(W * self.n);
        let mut cols = tile.chunks_exact_mut(self.n);
        let mut zs: [&mut [Complex64]; W] =
            std::array::from_fn(|_| cols.next().expect("a tile holds W whole columns"));
        match sweep {
            Sweep::Forward => {
                for i in rows {
                    let acc = self.gather_row(self.row_ptr[i]..self.diag_idx[i], i, &zs);
                    for (zc, a) in zs.iter_mut().zip(acc) {
                        zc[i] = a;
                    }
                }
            }
            Sweep::Backward => {
                for i in rows.rev() {
                    let acc = self.gather_row((self.diag_idx[i] + 1)..self.row_ptr[i + 1], i, &zs);
                    let piv = self.pivot(i);
                    for (zc, a) in zs.iter_mut().zip(acc) {
                        zc[i] = a / piv;
                    }
                }
            }
            Sweep::AdjointForward => {
                for j in rows {
                    let piv = self.pivot(j).conj();
                    let w: [Complex64; W] = std::array::from_fn(|c| zs[c][j] / piv);
                    for (zc, &wc) in zs.iter_mut().zip(&w) {
                        zc[j] = wc;
                    }
                    self.scatter_row((self.diag_idx[j] + 1)..self.row_ptr[j + 1], &w, &mut zs);
                }
            }
            Sweep::AdjointBackward => {
                for j in rows.rev() {
                    let x: [Complex64; W] = std::array::from_fn(|c| zs[c][j]);
                    self.scatter_row(self.row_ptr[j]..self.diag_idx[j], &x, &mut zs);
                }
            }
        }
        rest
    }

    /// `z[i] - Σ lu[k]·z[col]` over the entries `ks` of row `i`, for every
    /// column of the tile.
    #[inline(always)]
    fn gather_row<const W: usize>(
        &self,
        ks: std::ops::Range<usize>,
        i: usize,
        zs: &[&mut [Complex64]; W],
    ) -> [Complex64; W] {
        let mut acc: [Complex64; W] = std::array::from_fn(|c| zs[c][i]);
        for k in ks {
            let v = self.lu[k];
            let j = self.col_idx[k];
            for (a, zc) in acc.iter_mut().zip(zs) {
                *a -= v * zc[j];
            }
        }
        acc
    }

    /// `z[col] -= conj(lu[k])·w` over the entries `ks` of one row, for every
    /// column of the tile whose `w` is nonzero: the zero-skip is a
    /// per-column decision on that column's multiplicand.
    #[inline(always)]
    fn scatter_row<const W: usize>(
        &self,
        ks: std::ops::Range<usize>,
        w: &[Complex64; W],
        zs: &mut [&mut [Complex64]; W],
    ) {
        if w.iter().all(|&wc| wc == Complex64::ZERO) {
            return;
        }
        let dense = w.iter().all(|&wc| wc != Complex64::ZERO);
        for k in ks {
            let vc = self.lu[k].conj();
            let col = self.col_idx[k];
            for (zc, &wc) in zs.iter_mut().zip(w) {
                if dense || wc != Complex64::ZERO {
                    zc[col] -= vc * wc;
                }
            }
        }
    }

    /// One streaming sweep over a whole column-major slab, in place: row
    /// blocks in sweep order, 4/2/1-wide column tiles inside each block.
    fn stream(&self, sweep: Sweep, z: &mut [Complex64]) {
        let n = self.n;
        let descending = matches!(sweep, Sweep::Backward | Sweep::AdjointBackward);
        let blocks = n.div_ceil(ROW_BLOCK);
        for b in 0..blocks {
            let r0 = if descending { blocks - 1 - b } else { b } * ROW_BLOCK;
            let rows = r0..(r0 + ROW_BLOCK).min(n);
            let mut rest = &mut *z;
            while !rest.is_empty() {
                rest = match rest.len() / n {
                    4.. => self.sweep_tile::<4>(sweep, rows.clone(), rest),
                    2 | 3 => self.sweep_tile::<2>(sweep, rows.clone(), rest),
                    _ => self.sweep_tile::<1>(sweep, rows.clone(), rest),
                };
            }
        }
    }
}

impl Drop for Ilu0<'_> {
    fn drop(&mut self) {
        crate::scratch::recycle_scratch(std::mem::take(&mut self.lu));
    }
}

impl Preconditioner for Ilu0<'_> {
    fn dim(&self) -> usize {
        self.n
    }

    fn solve(&self, r: &[Complex64], z: &mut [Complex64]) {
        assert_eq!(r.len(), self.n, "ILU solve: r length mismatch");
        assert_eq!(z.len(), self.n, "ILU solve: z length mismatch");
        self.solve_block(r, z, 1);
    }

    fn solve_adjoint(&self, r: &[Complex64], z: &mut [Complex64]) {
        assert_eq!(r.len(), self.n, "ILU adjoint solve: r length mismatch");
        assert_eq!(z.len(), self.n, "ILU adjoint solve: z length mismatch");
        self.solve_adjoint_block(r, z, 1);
    }

    fn solve_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        assert!(r.len() >= self.n * nvecs, "ILU block solve: r slab too short");
        assert!(z.len() >= self.n * nvecs, "ILU block solve: z slab too short");
        cbs_trace::timed(Stage::TriSweep, || {
            let z = &mut z[..self.n * nvecs];
            z.copy_from_slice(&r[..self.n * nvecs]);
            self.stream(Sweep::Forward, z);
            self.stream(Sweep::Backward, z);
        });
    }

    fn solve_adjoint_block(&self, r: &[Complex64], z: &mut [Complex64], nvecs: usize) {
        assert!(r.len() >= self.n * nvecs, "ILU adjoint block solve: r slab too short");
        assert!(z.len() >= self.n * nvecs, "ILU adjoint block solve: z slab too short");
        cbs_trace::timed(Stage::TriSweep, || {
            let z = &mut z[..self.n * nvecs];
            z.copy_from_slice(&r[..self.n * nvecs]);
            self.stream(Sweep::AdjointForward, z);
            self.stream(Sweep::AdjointBackward, z);
        });
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    reason = "test fixtures, not the per-node path"
)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use crate::ops::adjoint_defect;
    use cbs_linalg::{c64, CMatrix};
    use rand::SeedableRng;

    fn random_blocks(n: usize, density: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut b00 = CooBuilder::new(n, n);
        let mut b01 = CooBuilder::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if rand::Rng::gen_bool(&mut rng, density) {
                    let v = c64(
                        rand::Rng::gen_range(&mut rng, -1.0..1.0),
                        rand::Rng::gen_range(&mut rng, -1.0..1.0),
                    );
                    // Hermitian H00.
                    b00.push(i, j, v);
                    b00.push(j, i, v.conj());
                }
                if rand::Rng::gen_bool(&mut rng, density) {
                    b01.push(
                        i,
                        j,
                        c64(
                            rand::Rng::gen_range(&mut rng, -0.5..0.5),
                            rand::Rng::gen_range(&mut rng, -0.5..0.5),
                        ),
                    );
                }
            }
        }
        (b00.build(), b01.build())
    }

    fn dense_p(h00: &CsrMatrix, h01: &CsrMatrix, energy: f64, z: Complex64) -> CMatrix {
        let n = h00.nrows();
        let mut p = CMatrix::identity(n).scale(c64(energy, 0.0));
        p = &p - &h00.to_dense();
        p = &p - &h01.to_dense().scale(z);
        p = &p - &h01.to_dense().adjoint().scale(z.inv());
        p
    }

    #[test]
    fn assembled_operator_matches_dense_expression() {
        let (h00, h01) = random_blocks(14, 0.2, 901);
        let pattern = AssembledPattern::build(&h00, &h01);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(902);
        for &(e, z) in &[(0.3, c64(1.7, 0.9)), (-0.1, c64(0.4, -0.3)), (0.0, c64(2.0, 0.0))] {
            let op = pattern.assemble(e, z);
            assert_eq!(op.shift(), z);
            let p = dense_p(&h00, &h01, e, z);
            let x = CVector::random(14, &mut rng);
            let got = op.apply_vec(&x);
            let want = p.matvec(&x);
            assert!((&got - &want).norm() < 1e-12 * (1.0 + want.norm()), "P(z) refill wrong");
            let got_adj = op.apply_adjoint_vec(&x);
            let want_adj = p.adjoint().matvec(&x);
            assert!((&got_adj - &want_adj).norm() < 1e-12 * (1.0 + want_adj.norm()));
        }
    }

    #[test]
    fn pattern_is_shared_and_diagonal_is_always_stored() {
        let (h00, h01) = random_blocks(10, 0.15, 903);
        let pattern = AssembledPattern::build(&h00, &h01);
        // Two refills at different (E, z) report the same structure.
        let a = pattern.assemble(0.1, c64(1.2, 0.4));
        let b = pattern.assemble(-0.7, c64(0.3, -0.9));
        assert_eq!(a.values().len(), b.values().len());
        assert_eq!(a.values().len(), pattern.nnz());
        assert!(std::ptr::eq(a.pattern(), b.pattern()), "refills must share the pattern");
        // Every diagonal is stored (required by the E shift and by the ILU).
        for i in 0..pattern.dim() {
            assert_eq!(pattern.col_idx[pattern.diag_idx[i]], i);
        }
        assert!(pattern.memory_bytes() > 0);
    }

    #[test]
    fn assembled_block_apply_is_bitwise_column_equivalent() {
        let (h00, h01) = random_blocks(11, 0.25, 904);
        let pattern = AssembledPattern::build(&h00, &h01);
        let op = pattern.assemble(0.2, c64(0.8, 0.5));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(905);
        let nvecs = 5;
        let n = 11;
        let x: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
        let mut y = vec![Complex64::ZERO; n * nvecs];
        op.apply_block(&x, &mut y, nvecs);
        let mut ya = vec![Complex64::ZERO; n * nvecs];
        op.apply_adjoint_block(&x, &mut ya, nvecs);
        for c in 0..nvecs {
            let mut col = vec![Complex64::ZERO; n];
            op.apply(&x[c * n..(c + 1) * n], &mut col);
            assert_eq!(&y[c * n..(c + 1) * n], &col[..], "column {c} differs");
            op.apply_adjoint(&x[c * n..(c + 1) * n], &mut col);
            assert_eq!(&ya[c * n..(c + 1) * n], &col[..], "adjoint column {c} differs");
        }
    }

    #[test]
    fn assembled_adjoint_is_exact_and_weight_is_one() {
        let (h00, h01) = random_blocks(12, 0.2, 906);
        let pattern = AssembledPattern::build(&h00, &h01);
        let op = pattern.assemble(0.15, c64(1.1, -0.6));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(907);
        // The adjoint is the exact conjugate transpose (scatter kernel), so
        // the defect is at rounding level regardless of block Hermiticity.
        assert!(adjoint_defect(&op, 8, &mut rng) < 1e-13);
        assert_eq!(op.traversal_weight(), 1);
    }

    #[test]
    fn ilu0_is_exact_on_a_tridiagonal_matrix() {
        // A tridiagonal LU updates only the pivots, so the diagonal ILU is
        // the LU and the solve must reproduce A⁻¹ r to rounding accuracy.
        let n = 24;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, c64(4.0, 0.7));
            if i + 1 < n {
                b.push(i, i + 1, c64(-1.0, 0.3));
                b.push(i + 1, i, c64(-1.0, -0.2));
            }
        }
        let a = b.build();
        let ilu = Ilu0::from_csr(&a);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(908);
        let x_true = CVector::random(n, &mut rng);
        let r = a.matvec(&x_true);
        let x = ilu.solve_vec(&r);
        assert!((&x - &x_true).norm() < 1e-10 * x_true.norm(), "ILU != LU on tridiagonal");
        // Adjoint solve: A† x̃ = r̃ through the same factors.
        let rt = a.matvec_adjoint(&x_true);
        let mut xt = CVector::zeros(n);
        ilu.solve_adjoint(rt.as_slice(), xt.as_mut_slice());
        assert!((&xt - &x_true).norm() < 1e-10 * x_true.norm(), "adjoint ILU solve wrong");
    }

    /// The factors are those of the diagonal ILU: `L̂ = I + L D̃⁻¹` over the
    /// matrix's own strict lower triangle, `U` its own strict upper one,
    /// and only the pivots eliminated — checked against a dense recurrence.
    #[test]
    fn ilu0_updates_only_the_pivots() {
        let (h00, h01) = random_blocks(17, 0.25, 916);
        let pattern = AssembledPattern::build(&h00, &h01);
        let op = pattern.assemble(0.07, c64(1.4, 0.6));
        let ilu = op.ilu0();
        let a = dense_p(&h00, &h01, 0.07, c64(1.4, 0.6));
        let mut d = vec![Complex64::ZERO; 17];
        for i in 0..17 {
            d[i] = (0..i).fold(a[(i, i)], |p, j| p - a[(i, j)] * a[(j, i)] / d[j]);
        }
        for i in 0..17 {
            for k in pattern.row_ptr[i]..pattern.row_ptr[i + 1] {
                let j = pattern.col_idx[k];
                let want = match j.cmp(&i) {
                    std::cmp::Ordering::Less => a[(i, j)] / d[j],
                    std::cmp::Ordering::Equal => d[i],
                    std::cmp::Ordering::Greater => a[(i, j)],
                };
                assert!((ilu.lu()[k] - want).abs() <= 1e-12 * (1.0 + want.abs()), "({i}, {j})");
            }
        }
    }

    #[test]
    fn ilu0_adjoint_solve_is_the_adjoint_of_the_solve() {
        let (h00, h01) = random_blocks(13, 0.2, 909);
        let pattern = AssembledPattern::build(&h00, &h01);
        let op = pattern.assemble(0.05, c64(1.9, 0.4));
        let ilu = op.ilu0();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(910);
        let n = 13;
        for _ in 0..6 {
            let x = CVector::random(n, &mut rng);
            let y = CVector::random(n, &mut rng);
            let mut mx = CVector::zeros(n);
            ilu.solve(x.as_slice(), mx.as_mut_slice());
            let mut mty = CVector::zeros(n);
            ilu.solve_adjoint(y.as_slice(), mty.as_mut_slice());
            // ⟨M⁻¹ x, y⟩ = ⟨x, M⁻† y⟩
            let lhs = mx.dot(&y);
            let rhs = x.dot(&mty);
            let scale = 1.0 + lhs.abs().max(rhs.abs());
            assert!((lhs - rhs).abs() < 1e-10 * scale, "adjoint identity violated");
        }
    }

    #[test]
    fn ilu0_approximates_the_assembled_operator() {
        // On a diagonally dominant P(z), M⁻¹ P(z) x should be much closer to
        // x than P(z) x is (scaled): the whole point of preconditioning.
        let n = 20;
        let mut b00 = CooBuilder::new(n, n);
        let mut b01 = CooBuilder::new(n, n);
        for i in 0..n {
            b00.push(i, i, c64(-6.0, 0.0));
            if i + 1 < n {
                b00.push(i, i + 1, c64(0.8, 0.2));
                b00.push(i + 1, i, c64(0.8, -0.2));
            }
            b01.push(i, (i + 3) % n, c64(0.3, -0.1));
        }
        let (h00, h01) = (b00.build(), b01.build());
        let pattern = AssembledPattern::build(&h00, &h01);
        let op = pattern.assemble(0.2, c64(1.5, 1.0));
        let ilu = op.ilu0();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(911);
        let x = CVector::random(n, &mut rng);
        let px = op.apply_vec(&x);
        let mpx = ilu.solve_vec(&px);
        assert!(
            (&mpx - &x).norm() < 0.3 * x.norm(),
            "M⁻¹P(z) far from identity: defect {}",
            (&mpx - &x).norm() / x.norm()
        );
    }
}

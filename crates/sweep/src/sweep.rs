//! The multi-energy sweep orchestrator.
//!
//! [`EnergySweep`] is the one multi-energy driver; it owns the whole
//! Figures-6/11 workload.  It solves exactly the grid it is given
//! (ascending, bit-deduplicated) as one pooled round of
//! `cbs_core::solve_qeps_with`, every solve from a zero initial guess as the
//! paper does, and writes a checkpoint after every extracted energy so a
//! killed sweep resumes bit-identically.  What is left here is the grid,
//! the resume, the checkpoint, the classification and the statistics.
//!
//! Determinism invariants, locked in by `tests/sweep_determinism.rs` at the
//! workspace root:
//!
//! * serial and rayon executors produce bit-identical results;
//! * every energy is bit-identical to the per-energy
//!   `solve_qep_with(&sweep.problem_at(e), …)` classified by
//!   `cbs_core::classify_point`;
//! * a resumed sweep reproduces the uninterrupted one bit-for-bit
//!   (counters included; wall-clock timings are per-run).

use std::path::Path;

use cbs_core::{
    classify_point, solve_qeps_with, BlockPolicy, CbsPoint, CbsStatistics, ComplexBandStructure,
    ContourError, PrecondPolicy, QepProblem, RingContour,
};
use cbs_parallel::TaskExecutor;
use cbs_sparse::LinearOperator;
use cbs_trace::TraceHandle;

use crate::checkpoint::{CheckpointError, SweepCheckpoint};
use crate::config::SweepConfig;

/// Per-energy solver counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnergyStats {
    /// Primal BiCG iterations over the energy's solves.
    pub bicg_iterations: usize,
    /// Operator applications over the energy's solves (matvec-equivalents:
    /// the per-column work, however the applies were fused).
    pub matvecs: usize,
    /// Operator traversals performed, one per fused block apply (up to
    /// `N_rh`x below [`matvecs`](Self::matvecs)).
    pub operator_traversals: usize,
    /// Shifted solves run (each one primal + dual pair): the length of the
    /// energy's `SsResult::solve_histories`.
    pub solves: usize,
    /// Of those, the solves whose pair did not converge (stop reason other
    /// than `Converged`: the iteration cap, or a breakdown).
    pub unconverged: usize,
    /// Eigenpairs accepted by the residual filter.
    pub accepted: usize,
    /// Candidates discarded by the residual filter.
    pub discarded: usize,
    /// Numerical rank selected by the Hankel SVD.
    pub numerical_rank: usize,
}

/// One completed scan energy: its classified CBS points plus counters.  The
/// unit of checkpointing.
#[derive(Clone, Debug)]
pub struct EnergyRecord {
    /// The scan energy (hartree).
    pub energy: f64,
    /// Solver counters.
    pub stats: EnergyStats,
    /// Classified solutions at this energy (`energy_index` is assigned at
    /// assembly time).
    pub points: Vec<CbsPoint>,
}

/// One probe measurement.  Vestige, released by ROADMAP 1(a).
#[derive(Clone, Debug)]
pub struct ProbeSample {
    /// Measured wall-clock of the probe solve (nanoseconds).
    pub wall_ns: u64,
}

/// A committed auto-tuning decision.  Vestige, released by ROADMAP 1(a).
#[derive(Clone, Debug)]
pub struct AutoDecision {
    /// Job shape.
    pub block: BlockPolicy,
    /// Operator representation / preconditioning.
    pub precond: PrecondPolicy,
    /// Slice count (1 = single contour).
    pub slices: usize,
    /// Probe measurements.
    pub probe: Vec<ProbeSample>,
}

/// Result of a completed sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The band structure: the grid's energies ascending, every point
    /// carrying its `energy_index`.
    pub cbs: ComplexBandStructure,
    /// Aggregate statistics.
    pub stats: CbsStatistics,
    /// Per-energy records, ascending in energy.
    pub records: Vec<EnergyRecord>,
    /// **Vestigial:** always `None` — there is no tuner.  Kept because the
    /// repo benchmark (`benchmark/src/layers.rs`) reads it; released by
    /// ROADMAP 1(a).
    pub auto: Option<AutoDecision>,
}

/// Optional knobs of [`EnergySweep::run_with`].
#[derive(Default)]
pub struct RunOptions<'p> {
    /// Write a [`SweepCheckpoint`] here after every completed energy
    /// (atomically: temp file + rename).
    pub checkpoint_path: Option<&'p Path>,
    /// Resume from a previously saved checkpoint.  The configuration,
    /// period and grid must match bit-exactly, and its records must be a
    /// prefix of the grid.
    pub resume: Option<SweepCheckpoint>,
}

/// Why [`EnergySweep::run_with`] returned no result.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// The checkpoint to resume from does not match the sweep, or one
    /// could not be saved.
    Checkpoint(CheckpointError),
    /// The configuration's contour parameters (`lambda_min`, `n_int`) are
    /// invalid.
    Contour(ContourError),
    /// A scan energy is NaN or infinite (the first one in input order).
    NonFiniteEnergy(f64),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Checkpoint(e) => e.fmt(f),
            Self::Contour(e) => e.fmt(f),
            Self::NonFiniteEnergy(e) => write!(f, "sweep error: scan energy {e} is not finite"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Mutable progress of one run (completed records, counters).
struct State {
    records: Vec<EnergyRecord>,
    linear_solve_seconds: f64,
    extraction_seconds: f64,
}

/// The batched multi-energy CBS driver.
///
/// Every solve starts from a zero initial guess; nothing crosses from one
/// scan energy to another but the source block and the real stencil.  The
/// grid is released as one flat pool round, so memory is one moment
/// accumulator per energy in flight (`N_mm·N_rh` length-`N` columns, real
/// on a mirrored ring, plus `2·N_mm` projections of `N_rh×N_rh`;
/// `SsResult::moment_store_bytes`), plus one node's solutions per
/// worker.  A checkpoint ([`RunOptions::checkpoint_path`]) is written as
/// each energy is extracted, once the pool has returned: it holds finished
/// energies' results only.
pub struct EnergySweep<'a> {
    h00: &'a dyn LinearOperator,
    h01: &'a dyn LinearOperator,
    period: f64,
    config: SweepConfig,
}

impl<'a> EnergySweep<'a> {
    /// Build a sweep over the block Hamiltonian `h00`/`h01` with lattice
    /// period `period` (bohr).
    ///
    /// # Panics
    ///
    /// Where `cbs_core::QepProblem::new` does: on blocks that are not square
    /// or not of one size, and on a period that is not positive.
    pub fn new(
        h00: &'a dyn LinearOperator,
        h01: &'a dyn LinearOperator,
        period: f64,
        config: SweepConfig,
    ) -> Self {
        let sweep = Self { h00, h01, period, config };
        // `QepProblem::new` checks the blocks and the period.
        sweep.problem_at(0.0);
        sweep
    }

    /// **Vestigial:** a no-op that keeps its dimension check.
    /// `SsConfig::precond` alone selects the diagonal ILU.  It survives only
    /// because the repo benchmark (`benchmark/src/workloads.rs`) attaches a
    /// pattern; released by ROADMAP 1(a).
    pub fn with_pattern(self, pattern: cbs_sparse::AssembledPattern) -> Self {
        assert_eq!(pattern.dim(), self.h00.nrows(), "pattern dimension mismatch");
        self
    }

    /// **Vestigial:** a no-op that keeps its dimension check, like
    /// [`with_pattern`](Self::with_pattern).  Released by ROADMAP 1(a).
    pub fn with_projector(self, projector: cbs_sparse::FactoredProjector) -> Self {
        assert_eq!(projector.dim(), self.h00.nrows(), "projector dimension mismatch");
        self
    }

    /// The sweep's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// The QEP at one scan energy as the sweep solves it: on blocks that
    /// are stencil views, every energy reads the one stencil they share.
    pub fn problem_at(&self, energy: f64) -> QepProblem<'a> {
        QepProblem::new(self.h00, self.h01, energy, self.period)
    }

    /// Run the sweep to completion with no checkpointing.  An empty grid
    /// returns an empty result.
    ///
    /// # Panics
    ///
    /// On a NaN or infinite energy and on invalid contour parameters in the
    /// configuration: [`run_with`](Self::run_with) returns those as a
    /// [`SweepError`].
    pub fn run<E: TaskExecutor>(&self, energies: &[f64], executor: &E) -> SweepResult {
        self.run_with(energies, executor, RunOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run with checkpointing or resume.
    ///
    /// Records complete in grid order (ascending), and the checkpoint is
    /// rewritten atomically after each one, so a sweep killed at any point
    /// leaves a checkpoint whose records are the grid's first `k` energies.
    /// Resuming from such a prefix solves the rest and returns the
    /// uninterrupted result bit for bit, counters included.  A checkpoint
    /// of another configuration, period, ring, dimension or grid, or whose
    /// records are not a prefix of the grid, is
    /// [`CheckpointError::Mismatch`]; a failed save is
    /// [`CheckpointError::Io`] (both as [`SweepError::Checkpoint`]).  A NaN
    /// or infinite energy is [`SweepError::NonFiniteEnergy`], and invalid
    /// contour parameters are [`SweepError::Contour`]; neither solves
    /// anything.
    pub fn run_with<E: TaskExecutor>(
        &self,
        energies: &[f64],
        executor: &E,
        opts: RunOptions<'_>,
    ) -> Result<SweepResult, SweepError> {
        let RunOptions { checkpoint_path, resume } = opts;
        if let Some(&e) = energies.iter().find(|e| !e.is_finite()) {
            return Err(SweepError::NonFiniteEnergy(e));
        }

        // Ascending, bit-deduplicated grid: the canonical processing order.
        let mut grid: Vec<f64> = energies.to_vec();
        grid.sort_by(f64::total_cmp);
        grid.dedup_by(|a, b| a.to_bits() == b.to_bits());

        let ss = &self.config.ss;
        RingContour::try_new(ss.lambda_min, ss.n_int).map_err(SweepError::Contour)?;

        let mut fingerprint = self.config.fingerprint(self.period);
        // Whether the ring is mirrored (real blocks, at every energy alike)
        // decides the node list, and so every record's counters.
        fingerprint.push(self.problem_at(0.0).is_conjugate_symmetric() as u64);
        // The dimension: the same cell at another grid spacing has the same
        // period and configuration, but is another problem.
        fingerprint.push(self.h00.nrows() as u64);

        let mut st =
            State { records: Vec::new(), linear_solve_seconds: 0.0, extraction_seconds: 0.0 };
        if let Some(cp) = resume {
            let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
            if cp.fingerprint != fingerprint {
                return Err(CheckpointError::Mismatch(
                    "configuration fingerprint mismatch: cannot resume".into(),
                )
                .into());
            }
            if cp.energies.len() != grid.len()
                || !cp.energies.iter().zip(&grid).all(|(a, b)| same(a, b))
            {
                return Err(CheckpointError::Mismatch(
                    "energy grid mismatch: cannot resume".into(),
                )
                .into());
            }
            // Records complete in grid order, so a checkpoint this sweep
            // wrote holds the grid's first energies and nothing else.
            if cp.records.len() > grid.len()
                || !cp.records.iter().zip(&grid).all(|(r, e)| same(&r.energy, e))
            {
                return Err(CheckpointError::Mismatch(
                    "checkpoint records are not a prefix of the energy grid: cannot resume".into(),
                )
                .into());
            }
            st.records = cp.records;
        }

        let save = |st: &State| match checkpoint_path {
            Some(path) => SweepCheckpoint {
                fingerprint: fingerprint.clone(),
                energies: grid.clone(),
                records: st.records.clone(),
            }
            .save(path)
            .map_err(|e| CheckpointError::Io(format!("checkpoint save failed: {e}"))),
            None => Ok(()),
        };
        let rest = &grid[st.records.len()..];
        if !rest.is_empty() {
            self.solve_rest(rest, executor, &mut st, save)?;
        }
        Ok(self.assemble(st))
    }

    /// Solve `rest`, the grid's energies after the completed records, as
    /// one pooled round and append their records in order, calling `save`
    /// after each.  Each energy is independent of its round mates, so where
    /// a previous run was killed changes no bit of the result.
    fn solve_rest<E: TaskExecutor>(
        &self,
        rest: &[f64],
        executor: &E,
        st: &mut State,
        save: impl Fn(&State) -> Result<(), CheckpointError>,
    ) -> Result<(), SweepError> {
        let problems: Vec<QepProblem<'_>> = rest.iter().map(|&e| self.problem_at(e)).collect();
        // Trace context: the round tags its `i`-th energy with the installed
        // index plus `i`, so installing the first one's record index tags
        // every energy with its final `energy_index`.
        let round = {
            let _ctx = TraceHandle::resolve().with_energy(st.records.len()).enter();
            solve_qeps_with(&problems, &self.config.ss, executor).map_err(SweepError::Contour)?
        };
        st.linear_solve_seconds += round.linear_solve_seconds();
        for ((&energy, problem), result) in rest.iter().zip(&problems).zip(round) {
            st.extraction_seconds += result.timings.extraction_seconds;
            // `energy_index` is a placeholder until assembly.
            let points: Vec<CbsPoint> =
                result.eigenpairs.iter().map(|p| classify_point(problem, 0, p)).collect();
            // Matvec / traversal totals come from the extraction result so
            // they include the counted residual-check applications, matching
            // `SsResult`'s accounting.
            let stats = EnergyStats {
                bicg_iterations: result.total_bicg_iterations,
                matvecs: result.total_matvecs,
                operator_traversals: result.total_traversals,
                solves: result.solve_histories.len(),
                unconverged: result.solve_histories.iter().filter(|h| !h.converged()).count(),
                accepted: result.eigenpairs.len(),
                discarded: result.discarded,
                numerical_rank: result.numerical_rank,
            };
            st.records.push(EnergyRecord { energy, stats, points });
            save(st)?;
        }
        Ok(())
    }

    /// Assign each record's points their `energy_index` (the record's
    /// position in the grid) and aggregate the statistics.
    fn assemble(&self, st: State) -> SweepResult {
        let mut records = st.records;
        let energies: Vec<f64> = records.iter().map(|r| r.energy).collect();
        let mut points = Vec::new();
        let mut stats = CbsStatistics {
            linear_solve_seconds: st.linear_solve_seconds,
            extraction_seconds: st.extraction_seconds,
            ..CbsStatistics::default()
        };
        for (index, rec) in records.iter_mut().enumerate() {
            for p in rec.points.iter_mut() {
                p.energy_index = index;
            }
            points.extend(rec.points.iter().copied());
            stats.total_bicg_iterations += rec.stats.bicg_iterations;
            stats.total_matvecs += rec.stats.matvecs;
            stats.operator_traversals += rec.stats.operator_traversals;
            // Every solve is cold: the vestigial split reads total / 0.
            stats.cold_bicg_iterations += rec.stats.bicg_iterations;
            stats.cold_solves += rec.stats.solves;
            stats.unconverged += rec.stats.unconverged;
            stats.accepted += rec.stats.accepted;
            stats.discarded += rec.stats.discarded;
        }
        SweepResult { cbs: ComplexBandStructure { points, energies }, stats, records, auto: None }
    }
}

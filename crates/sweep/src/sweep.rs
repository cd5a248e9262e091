//! The multi-energy sweep orchestrator.
//!
//! [`EnergySweep`] is the one multi-energy driver; it owns the whole
//! Figures-6/11 workload.  It solves the initial grid's per-energy groups
//! through one flattened task pool (`cbs_core::solve_pool`), every solve
//! from a zero initial guess as the paper does, adaptively bisects
//! intervals where the propagating-channel
//! count changes (or a caller-supplied predicate fires), each refinement
//! generation as one more pool, and checkpoints after every extracted
//! energy so a killed sweep resumes bit-identically.
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

use std::collections::BTreeMap;
use std::path::Path;

use cbs_core::{
    classify_point, extract_from_moments, solve_pool, BlockPolicy, CbsPoint, CbsStatistics,
    ComplexBandStructure, PoolGroup, PrecondPolicy, QepProblem, RingPlan,
};
use cbs_dft::BandStructure;
use cbs_parallel::TaskExecutor;
use cbs_sparse::LinearOperator;
use cbs_trace::{Stage, TraceHandle};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointError, SweepCheckpoint};
use crate::config::SweepConfig;

/// Where a scan energy came from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum EnergyOrigin {
    /// Member of the caller's initial grid (position in the ascending,
    /// deduplicated grid).
    Initial(usize),
    /// Inserted by adaptive refinement as the midpoint of a flagged
    /// interval.
    Refined {
        /// Lower endpoint of the bisected interval.
        lo: f64,
        /// Upper endpoint of the bisected interval.
        hi: f64,
    },
}

/// Per-energy solver counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyStats {
    /// Primal BiCG iterations over the energy's solves.
    pub bicg_iterations: usize,
    /// Operator applications over the energy's solves (matvec-equivalents:
    /// the per-column work, however the applies were fused).
    pub matvecs: usize,
    /// Operator-storage traversals actually performed (fused block applies
    /// count the operator's `traversal_weight`; up to `N_rh`x below
    /// [`matvecs`](Self::matvecs), and 3x fewer per apply through the real
    /// stencil).
    pub operator_traversals: usize,
    /// Shifted solves (each one primal + dual pair).
    pub solves: usize,
    /// Eigenpairs accepted by the residual filter.
    pub accepted: usize,
    /// Candidates discarded by the residual filter.
    pub discarded: usize,
    /// Numerical rank selected by the Hankel SVD.
    pub numerical_rank: usize,
}

/// One completed scan energy: its classified CBS points plus provenance and
/// counters.  The unit of checkpointing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnergyRecord {
    /// The scan energy (hartree).
    pub energy: f64,
    /// Where this energy came from.
    pub origin: EnergyOrigin,
    /// Solver counters.
    pub stats: EnergyStats,
    /// Classified solutions at this energy (`energy_index` is assigned at
    /// assembly time, once the final grid is known).
    pub points: Vec<CbsPoint>,
}

impl EnergyRecord {
    /// Number of propagating channels at this energy.
    pub fn channel_count(&self) -> usize {
        self.points.iter().filter(|p| p.propagating).count()
    }
}

/// Decides whether the interval between two completed neighbouring energies
/// deserves bisection, *in addition to* the built-in channel-count-change
/// rule.  Implementations must be pure functions of their arguments so
/// refinement stays deterministic across executors and resumes.
pub trait RefinementPredicate: Sync {
    /// `true` to bisect the interval `(lo.energy, hi.energy)`.
    fn should_refine(&self, lo: &EnergyRecord, hi: &EnergyRecord) -> bool;
}

/// Bisect intervals that bracket a band edge of a reference (real-k) band
/// structure — the `cbs-dft` predicate for resolving channel openings
/// cheaply: band edges are exactly where the CBS channel count jumps.
///
/// The (sorted) edge list is extracted once at construction, so each
/// interval query is a scan of a small precomputed vector rather than a
/// rescan of the full band structure.
pub struct BandEdgeRefiner {
    edges: Vec<f64>,
}

impl BandEdgeRefiner {
    /// Precompute the band edges of `bands` (see
    /// [`BandStructure::band_edges`]).
    pub fn new(bands: &BandStructure) -> Self {
        Self { edges: bands.band_edges(0.0) }
    }
}

impl RefinementPredicate for BandEdgeRefiner {
    fn should_refine(&self, lo: &EnergyRecord, hi: &EnergyRecord) -> bool {
        // The shared half-open `(a, b]` convention of
        // `BandStructure::brackets_band_edge`: an edge landing exactly on a
        // completed grid energy triggers the interval below it instead of
        // silently slipping between two strict inequalities.
        cbs_dft::edges_bracket(&self.edges, lo.energy, hi.energy)
    }
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
    /// The band structure: energies ascending (refined energies merged in),
    /// every point carrying its `energy_index`.
    pub cbs: ComplexBandStructure,
    /// Aggregate statistics, including the number of refined energies.
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
    /// period and initial grid must match bit-exactly.
    pub resume: Option<SweepCheckpoint>,
    /// Stop (checkpointably) after this many *newly solved* energies — the
    /// test hook that simulates a killed sweep.
    pub max_new_energies: Option<usize>,
    /// Extra refinement trigger, OR-ed with the channel-count-change rule.
    pub predicate: Option<&'p dyn RefinementPredicate>,
}

/// What [`EnergySweep::run_with`] came back with.
pub enum RunOutcome {
    /// The sweep ran to completion.
    Complete(SweepResult),
    /// The `max_new_energies` budget ran out; the checkpoint resumes it.
    Interrupted(SweepCheckpoint),
}

impl RunOutcome {
    /// Unwrap a completed sweep.
    pub fn expect_complete(self, msg: &str) -> SweepResult {
        match self {
            RunOutcome::Complete(r) => r,
            RunOutcome::Interrupted(_) => panic!("{msg}"),
        }
    }
}

/// Mutable progress of one run (completed records, counters).
struct State {
    records: Vec<EnergyRecord>,
    /// Bits of completed energies → index into `records`.
    done: BTreeMap<u64, usize>,
    new_energies: usize,
    linear_solve_seconds: f64,
    extraction_seconds: f64,
}

enum BatchStatus {
    Done,
    BudgetExhausted,
}

/// The batched, adaptive multi-energy CBS driver.
///
/// Every solve starts from a zero initial guess; nothing crosses from one
/// scan energy to another but the source block and the real stencil.  The
/// initial grid is released as one flat pool round and each refinement
/// generation as one more, so memory is one moment accumulator per energy
/// in flight (`N_mm·N_rh` length-`N` columns, real on a mirrored ring, plus
/// `2·N_mm` projections of `N_rh×N_rh`; `MomentAccumulator::memory_bytes`),
/// plus one node's solutions per worker.  A checkpoint ([`RunOptions::checkpoint_path`]) is
/// written as each energy of a round is extracted, once the round's pool
/// has returned: it holds finished energies' results only.
pub struct EnergySweep<'a> {
    h00: &'a dyn LinearOperator,
    h01: &'a dyn LinearOperator,
    period: f64,
    config: SweepConfig,
}

impl<'a> EnergySweep<'a> {
    /// Build a sweep over the block Hamiltonian `h00`/`h01` with lattice
    /// period `period` (bohr).
    pub fn new(
        h00: &'a dyn LinearOperator,
        h01: &'a dyn LinearOperator,
        period: f64,
        config: SweepConfig,
    ) -> Self {
        assert_eq!(h00.nrows(), h00.ncols(), "H00 must be square");
        assert_eq!(h01.nrows(), h01.ncols(), "H01 must be square");
        assert_eq!(h00.nrows(), h01.nrows(), "H00 and H01 must have the same size");
        assert!(period > 0.0, "period must be positive");
        assert!(config.ss.n_rh > 0, "need at least one right-hand side");
        Self { h00, h01, period, config }
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
    pub fn run<E: TaskExecutor>(&self, energies: &[f64], executor: &E) -> SweepResult {
        self.run_with(energies, executor, RunOptions::default())
            .expect("no checkpoint I/O involved")
            .expect_complete("no energy budget set")
    }

    /// Run with checkpointing, resume, an energy budget, or an extra
    /// refinement predicate.
    pub fn run_with<E: TaskExecutor>(
        &self,
        energies: &[f64],
        executor: &E,
        opts: RunOptions<'_>,
    ) -> Result<RunOutcome, CheckpointError> {
        let mut opts = opts;
        let cpu_start = cbs_trace::cpu_totals();
        let trace_t0 = cbs_trace::now_ns();

        // Ascending, bit-deduplicated grid: the canonical processing order.
        let mut grid: Vec<f64> = energies.to_vec();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("scan energies must not be NaN"));
        grid.dedup_by(|a, b| a.to_bits() == b.to_bits());

        // The plan (source block and node list) depends only on the
        // Hamiltonian blocks — their dimension and whether they are real,
        // neither of which varies with the scan energy — and the
        // configuration, so one instance, built at any energy, serves every
        // scan energy of the sweep (and an empty grid): the full ring, or
        // its upper half for real blocks.
        let plan = RingPlan::build(&self.problem_at(0.0), &self.config.ss)
            .expect("invalid contour parameters (lambda_min, n_int) in sweep configuration");

        let mut fingerprint = self.config.fingerprint(self.period);
        // Whether the ring is mirrored (real blocks) decides the node list,
        // and so every record's counters.
        fingerprint.push(plan.is_mirrored() as u64);
        // The dimension: the same cell at another grid spacing has the same
        // period and configuration, but is another problem.
        fingerprint.push(self.h00.nrows() as u64);

        let mut st = State {
            records: Vec::new(),
            done: BTreeMap::new(),
            new_energies: 0,
            linear_solve_seconds: 0.0,
            extraction_seconds: 0.0,
        };
        if let Some(cp) = opts.resume.take() {
            if cp.fingerprint != fingerprint {
                return Err(CheckpointError::Mismatch(
                    "configuration fingerprint mismatch: cannot resume".into(),
                ));
            }
            let grid_bits: Vec<u64> = grid.iter().map(|e| e.to_bits()).collect();
            let cp_bits: Vec<u64> = cp.initial_energies.iter().map(|e| e.to_bits()).collect();
            if grid_bits != cp_bits {
                return Err(CheckpointError::Mismatch(
                    "energy grid mismatch: cannot resume".into(),
                ));
            }
            for (i, r) in cp.records.iter().enumerate() {
                st.done.insert(r.energy.to_bits(), i);
            }
            st.records = cp.records;
        }

        let checkpoint = |st: &State| SweepCheckpoint {
            fingerprint: fingerprint.clone(),
            initial_energies: grid.clone(),
            records: st.records.clone(),
        };

        // --- Initial grid, one flat round. ----------------------------------
        let batch: Vec<(f64, EnergyOrigin)> =
            grid.iter().enumerate().map(|(i, &e)| (e, EnergyOrigin::Initial(i))).collect();
        if let BatchStatus::BudgetExhausted =
            self.solve_batch(batch, &plan, executor, &mut st, &opts, &checkpoint)?
        {
            return Ok(RunOutcome::Interrupted(checkpoint(&st)));
        }

        // --- Adaptive refinement, generation by generation. ---------------
        //
        // Each generation's candidate list is a pure function of the records
        // *visible* to it (initial grid + earlier generations), replayed
        // from completed records on resume — so an interrupted sweep makes
        // exactly the same refinement decisions as an uninterrupted one.
        if self.config.max_refinements > 0 {
            let mut visible: Vec<usize> = (0..st.records.len())
                .filter(|&i| matches!(st.records[i].origin, EnergyOrigin::Initial(_)))
                .collect();
            loop {
                // Replay invariant: only *earlier generations* (the visible
                // refined records) count against this generation's budget,
                // so a resumed sweep recomputes exactly the candidate list
                // the uninterrupted sweep acted on.
                let visible_refined = visible
                    .iter()
                    .filter(|&&i| matches!(st.records[i].origin, EnergyOrigin::Refined { .. }))
                    .count();
                let candidates = self.refinement_candidates(
                    &st,
                    &visible,
                    self.config.max_refinements.saturating_sub(visible_refined),
                    opts.predicate,
                );
                if candidates.is_empty() {
                    break;
                }
                if let BatchStatus::BudgetExhausted = self.solve_batch(
                    candidates.clone(),
                    &plan,
                    executor,
                    &mut st,
                    &opts,
                    &checkpoint,
                )? {
                    return Ok(RunOutcome::Interrupted(checkpoint(&st)));
                }
                for (e, _) in &candidates {
                    let idx = st.done[&e.to_bits()];
                    visible.push(idx);
                }
            }
        }

        Ok(RunOutcome::Complete(self.assemble(st, cpu_start, trace_t0)))
    }

    /// Solve one *logical* batch of energies (the initial grid or a
    /// refinement generation) through a single flattened task pool and fold
    /// the outcomes into the state, checkpointing after each energy.
    ///
    /// `batch` is the full batch including energies a resumed run already
    /// completed; only the missing ones are solved.  Each energy's group is
    /// independent of its pool mates, so where a previous run was killed
    /// changes no bit of the result.
    fn solve_batch<E: TaskExecutor>(
        &self,
        batch: Vec<(f64, EnergyOrigin)>,
        plan: &RingPlan,
        executor: &E,
        st: &mut State,
        opts: &RunOptions<'_>,
        checkpoint: &dyn Fn(&State) -> SweepCheckpoint,
    ) -> Result<BatchStatus, CheckpointError> {
        let mut to_solve: Vec<(f64, EnergyOrigin)> =
            batch.into_iter().filter(|(e, _)| !st.done.contains_key(&e.to_bits())).collect();
        let mut truncated = false;
        if let Some(max_new) = opts.max_new_energies {
            let allowed = max_new.saturating_sub(st.new_energies);
            if allowed < to_solve.len() {
                to_solve.truncate(allowed);
                truncated = true;
            }
        }
        let ss = &self.config.ss;
        // Trace context: each energy of the batch is tagged with the record
        // index it is about to receive (completion order; `assemble`'s final
        // ascending `energy_index` is only known at the end).  The handle
        // resolves to a no-op when no `cbs_trace::TraceSession` records.
        let record_base = st.records.len();
        let trace = TraceHandle::resolve();

        if !to_solve.is_empty() {
            let problems: Vec<QepProblem<'_>> =
                to_solve.iter().map(|&(e, _)| self.problem_at(e)).collect();
            // One pool group per energy: jobs energy-major in node order,
            // each energy's moments folded in that order — bit-identical to
            // solving the energies one by one, on every executor.
            let groups: Vec<PoolGroup<'_, '_>> = problems
                .iter()
                .enumerate()
                .map(|(i, problem)| PoolGroup {
                    problem,
                    v_cols: &plan.v_cols,
                    trace: trace.with_energy(record_base + i),
                })
                .collect();
            let accs = groups.iter().map(|_| plan.accumulator()).collect();

            #[expect(
                clippy::disallowed_types,
                reason = "per-run wall-clock statistic; reported, never fingerprinted"
            )]
            let t0 = std::time::Instant::now();
            let outcomes = solve_pool(&groups, accs, ss, executor);
            st.linear_solve_seconds += t0.elapsed().as_secs_f64();
            drop(groups);

            for (i, ((energy, origin), outcome)) in to_solve.into_iter().zip(outcomes).enumerate() {
                let _extract_ctx = trace.with_energy(record_base + i).enter();
                let solves = outcome.solves;
                let result = extract_from_moments(&problems[i], ss, &plan.v_cols, outcome, 0.0);
                st.extraction_seconds += result.timings.extraction_seconds;
                // `energy_index` is a placeholder until assembly fixes the
                // grid.
                let points: Vec<CbsPoint> =
                    result.eigenpairs.iter().map(|p| classify_point(&problems[i], 0, p)).collect();
                // Matvec / traversal totals come from the extraction result
                // so they include the metered residual-check applications,
                // matching `SsResult`'s accounting.
                let stats = EnergyStats {
                    bicg_iterations: result.total_bicg_iterations,
                    matvecs: result.total_matvecs,
                    operator_traversals: result.total_traversals,
                    solves,
                    accepted: result.eigenpairs.len(),
                    discarded: result.discarded,
                    numerical_rank: result.numerical_rank,
                };
                st.done.insert(energy.to_bits(), st.records.len());
                st.records.push(EnergyRecord { energy, origin, stats, points });
                st.new_energies += 1;
                if let Some(path) = opts.checkpoint_path {
                    checkpoint(st)
                        .save(path)
                        .map_err(|e| CheckpointError::Io(format!("checkpoint save failed: {e}")))?;
                }
            }
        }

        Ok(if truncated { BatchStatus::BudgetExhausted } else { BatchStatus::Done })
    }

    /// One generation of refinement candidates: midpoints of visible
    /// adjacent intervals that are wide enough and flagged by the
    /// channel-count rule or the extra predicate, truncated to `remaining`.
    fn refinement_candidates(
        &self,
        st: &State,
        visible: &[usize],
        remaining: usize,
        predicate: Option<&dyn RefinementPredicate>,
    ) -> Vec<(f64, EnergyOrigin)> {
        if remaining == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<&EnergyRecord> = visible.iter().map(|&i| &st.records[i]).collect();
        sorted.sort_by(|a, b| a.energy.partial_cmp(&b.energy).unwrap());
        let mut out = Vec::new();
        for w in sorted.windows(2) {
            if out.len() == remaining {
                break;
            }
            let (lo, hi) = (w[0], w[1]);
            if hi.energy - lo.energy <= self.config.min_refine_spacing {
                continue;
            }
            let trigger = lo.channel_count() != hi.channel_count()
                || predicate.is_some_and(|p| p.should_refine(lo, hi));
            if !trigger {
                continue;
            }
            let mid = 0.5 * (lo.energy + hi.energy);
            if mid <= lo.energy || mid >= hi.energy {
                continue; // interval too narrow for a representable midpoint
            }
            out.push((mid, EnergyOrigin::Refined { lo: lo.energy, hi: hi.energy }));
        }
        out
    }

    /// Sort the records into the final ascending grid, assign
    /// `energy_index` and aggregate the statistics; `cpu_start` / `trace_t0`
    /// are the `cbs_trace::cpu_totals()` / `now_ns()` readings at the start
    /// of the run.
    fn assemble(
        &self,
        st: State,
        cpu_start: [u64; cbs_trace::STAGE_COUNT],
        trace_t0: u64,
    ) -> SweepResult {
        let cpu_end = cbs_trace::cpu_totals();
        let cpu = |stage: Stage| cpu_end[stage as usize].wrapping_sub(cpu_start[stage as usize]);
        // Span-merged wall attribution is available only while a trace
        // session records; `None` leaves the wall fields zero.
        let wall = cbs_trace::aggregate_window(trace_t0, cbs_trace::now_ns());
        let mut records = st.records;
        records.sort_by(|a, b| a.energy.partial_cmp(&b.energy).unwrap());
        let energies: Vec<f64> = records.iter().map(|r| r.energy).collect();
        let mut points = Vec::new();
        let mut stats = CbsStatistics {
            linear_solve_seconds: st.linear_solve_seconds,
            extraction_seconds: st.extraction_seconds,
            // Per-stage nanosecond counters: the CPU-ns stage counters cover
            // this run only (a resumed sweep reports post-resume time, like
            // the wall-clock fields).
            kernel_ns: cpu(Stage::Kernel),
            precond_ns: cpu(Stage::IluFactor) + cpu(Stage::TriSweep),
            kernel_wall_ns: wall.map_or(0, |w| w.wall(Stage::Kernel)),
            precond_wall_ns: wall.map_or(0, |w| w.wall(Stage::IluFactor) + w.wall(Stage::TriSweep)),
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
            stats.accepted += rec.stats.accepted;
            stats.discarded += rec.stats.discarded;
            if matches!(rec.origin, EnergyOrigin::Refined { .. }) {
                stats.refined_energies += 1;
            }
        }
        SweepResult { cbs: ComplexBandStructure { points, energies }, stats, records, auto: None }
    }
}

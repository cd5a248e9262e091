//! The multi-energy sweep orchestrator.
//!
//! [`EnergySweep`] owns the whole Figures-6/11 workload: it plans the scan
//! energies into release rounds ([`cbs_parallel::SweepSchedule`]), solves
//! each round's per-energy groups through one flattened task pool
//! (the `pool` module), warm-starts every group from the nearest
//! already-completed energy's solutions, adaptively bisects intervals where
//! the propagating-channel count changes (or a caller-supplied predicate
//! fires), and checkpoints after every completed energy so a killed sweep
//! resumes bit-identically.
//!
//! Determinism invariants, locked in by `tests/sweep_determinism.rs` at the
//! workspace root:
//!
//! * serial and rayon executors produce bit-identical results for any
//!   fixed configuration (warm or cold);
//! * a cold sweep ([`SweepConfig::cold`]) on an ascending grid is
//!   bit-identical to the per-energy `compute_cbs` loop;
//! * a resumed sweep reproduces the uninterrupted one bit-for-bit
//!   (counters included; wall-clock timings are per-run).

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use cbs_core::{
    classify_point, extract_from_moments, extract_sliced, solve_qep_with, BlockPolicy, CbsPoint,
    CbsStatistics, ComplexBandStructure, PrecondPolicy, QepProblem, SlicedPlan, SsConfig,
    StencilCache,
};
use cbs_dft::BandStructure;
use cbs_linalg::CVector;
use cbs_parallel::{
    CalibrationSample, CellId, CostModel, SerialExecutor, TaskExecutor, WorkloadSpec,
};
use cbs_sparse::{AssembledPattern, FactoredProjector, LinearOperator};
use cbs_trace::TraceHandle;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{AutoDecision, CheckpointError, ProbeSample, SweepCheckpoint};
use crate::config::SweepConfig;
use crate::pool::{solve_round, SolveGroup};

/// Hysteresis margin of the auto-tuning decision: a challenger cell only
/// displaces the incumbent when its predicted wall-clock wins by this
/// fraction, so probe timing jitter below the margin cannot flip the
/// committed decision (the measured gap between cells — ILU(0) roughly
/// halving the assembled wall — is well above it).
const AUTO_MARGIN: f64 = 0.10;

/// Largest slice count the auto-tuning slice tuner will consider.
const AUTO_MAX_SLICES: u32 = 4;

/// Process-wide memo of probe measurements ("wisdom", FFTW-style), keyed
/// by everything the probe counters depend on (system identity, probe
/// configuration, candidate set).  Two sweeps of the same workload in one
/// process — serial and rayon, back-to-back or concurrent — reuse the
/// first probe's samples and therefore commit the *same* decision; without
/// the memo, millisecond-scale wall jitter could rank two near-tied cells
/// differently between runs.  Across processes the checkpoint replay (not
/// the memo) is what pins a resumed sweep's decision.
#[allow(clippy::type_complexity)]
fn probe_memo(
) -> &'static std::sync::Mutex<Vec<(Vec<u64>, Vec<CalibrationSample>, Vec<ProbeSample>)>> {
    static MEMO: std::sync::OnceLock<
        std::sync::Mutex<Vec<(Vec<u64>, Vec<CalibrationSample>, Vec<ProbeSample>)>>,
    > = std::sync::OnceLock::new();
    MEMO.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// A full `(x, x̃)` solution table in pool job order
/// (`point_index * N_rh + rhs_index`) — the currency of warm-starting: each
/// completed energy donates its table, each new energy seeds from the
/// nearest donor.
pub type SeedTable = Vec<(CVector, CVector)>;

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
    /// [`matvecs`](Self::matvecs), and 3x fewer per apply under the
    /// assembled operator).
    pub operator_traversals: usize,
    /// Numeric refills of the assembled `P(z)` pattern (ILU(0)
    /// factorizations included); zero under `PrecondPolicy::MatrixFree`.
    pub operator_assemblies: usize,
    /// Solves that started from a donor seed.
    pub warm_solves: usize,
    /// Solves that started cold.
    pub cold_solves: usize,
    /// Iterations spent in warm-started solves.
    pub warm_iterations: usize,
    /// Iterations spent in cold solves.
    pub cold_iterations: usize,
    /// Solves run under the majority-stop cap.
    pub capped_solves: usize,
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
    /// Energy of the warm-start donor, if the solves were seeded.
    pub seeded_from: Option<f64>,
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

/// Result of a completed sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The band structure: energies ascending (refined energies merged in),
    /// every point carrying its `energy_index`.
    pub cbs: ComplexBandStructure,
    /// Aggregate statistics, including the cold/warm iteration split and
    /// the number of refined energies.
    pub stats: CbsStatistics,
    /// Per-energy records, ascending in energy.
    pub records: Vec<EnergyRecord>,
    /// The committed auto-tuning decision, when the sweep ran with
    /// `SsConfig::auto()` / `CBS_AUTO=1` (`None` for fixed configurations).
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

/// Warm-start donor bank: completed energies' solution tables in completion
/// order, evicting the oldest beyond the configured capacity.
struct SeedBank {
    entries: VecDeque<(f64, SeedTable)>,
}

impl SeedBank {
    fn new() -> Self {
        Self { entries: VecDeque::new() }
    }

    fn insert(&mut self, energy: f64, table: SeedTable, capacity: usize) {
        self.entries.push_back((energy, table));
        while self.entries.len() > capacity.max(1) {
            self.entries.pop_front();
        }
    }

    /// Nearest donor by `|ΔE|`; ties resolved toward the lower energy so
    /// the choice is deterministic.
    fn nearest(&self, energy: f64) -> Option<(f64, &SeedTable)> {
        self.entries
            .iter()
            .min_by(|a, b| {
                let da = (a.0 - energy).abs();
                let db = (b.0 - energy).abs();
                da.partial_cmp(&db).unwrap().then(a.0.partial_cmp(&b.0).unwrap())
            })
            .map(|(e, t)| (*e, t))
    }
}

/// Mutable progress of one run (completed records, donor bank, counters).
struct State {
    records: Vec<EnergyRecord>,
    /// Bits of completed energies → index into `records`.
    done: BTreeMap<u64, usize>,
    /// Committed donor tables: only *fully completed* batches.  Donor
    /// selection reads exclusively from here, so the donors of a batch are
    /// a pure function of the batches before it — which is what keeps a
    /// mid-batch kill/resume bit-identical even once capacity eviction
    /// starts (the in-flight batch's donations live in `pending` until the
    /// batch completes, and are carried by the checkpoint).
    bank: SeedBank,
    /// Donations of the batch currently in flight, in completion order,
    /// committed to `bank` when the batch's last energy finishes.
    pending: Vec<(f64, SeedTable)>,
    new_energies: usize,
    linear_solve_seconds: f64,
    extraction_seconds: f64,
}

enum BatchStatus {
    Done,
    BudgetExhausted,
}

/// The batched, warm-started, adaptive multi-energy CBS driver.
pub struct EnergySweep<'a> {
    h00: &'a dyn LinearOperator,
    h01: &'a dyn LinearOperator,
    period: f64,
    config: SweepConfig,
    /// Assembled-operator pattern shared by every scan energy (the pattern
    /// is energy-independent); required for the assembled `PrecondPolicy`
    /// variants, which fall back to matrix-free without it.
    pattern: Option<AssembledPattern>,
    /// Factored non-local projector paired with the pattern (see
    /// `QepProblem::with_projector`): when present, the pattern is expected
    /// to cover the sparse-only blocks and the projector tail is applied in
    /// factored form by every assembled node.
    projector: Option<FactoredProjector>,
    /// The blocks' real stencil, converted by the first node solve that
    /// wants it (or found not to exist, once) and shared by every scan
    /// energy: it depends on the blocks only, not on `E`.
    stencil: StencilCache,
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
        Self {
            h00,
            h01,
            period,
            config,
            pattern: None,
            projector: None,
            stencil: StencilCache::new(),
        }
    }

    /// Attach the assembled-operator pattern
    /// (`cbs_sparse::AssembledPattern::build` over the CSR forms of the
    /// blocks).  One symbolic analysis serves the whole sweep: the
    /// structure is shared across every `(energy x node)` job of the
    /// flattened pool, refined energies included.
    pub fn with_pattern(mut self, pattern: AssembledPattern) -> Self {
        assert_eq!(pattern.dim(), self.h00.nrows(), "pattern dimension mismatch");
        self.pattern = Some(pattern);
        self
    }

    /// Attach a factored non-local projector to pair with the pattern
    /// (`cbs_dft::BlockHamiltonian::qep_factored` produces a matched pair).
    /// The pattern must then cover the sparse-only blocks — the projector
    /// contribution is accumulated on top by every assembled node.
    pub fn with_projector(mut self, projector: FactoredProjector) -> Self {
        assert_eq!(projector.dim(), self.h00.nrows(), "projector dimension mismatch");
        self.projector = Some(projector);
        self
    }

    /// The sweep's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// The QEP at one scan energy as the sweep solves it: the assembled
    /// backend (pattern, projector) attached, the real stencil shared with
    /// every other energy of this sweep.
    pub fn problem_at(&self, energy: f64) -> QepProblem<'_> {
        self.unshared_problem_at(energy).with_stencil_cache(&self.stencil)
    }

    /// [`problem_at`](Self::problem_at) with a stencil slot of its own, for
    /// the throwaway probe solves: whether the sweep's stencil exists decides
    /// which arithmetic its residual checks run, and that must not depend on
    /// a probe having run (it does not on resume, nor on a memo hit).
    fn unshared_problem_at(&self, energy: f64) -> QepProblem<'_> {
        let p = QepProblem::new(self.h00, self.h01, energy, self.period);
        let p = match &self.pattern {
            Some(pattern) => p.with_pattern(pattern),
            None => p,
        };
        match &self.projector {
            Some(proj) => p.with_projector(proj),
            None => p,
        }
    }

    /// Run the sweep to completion with no checkpointing.
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
        let stage_start = cbs_sparse::stage_snapshot();
        let cpu_start = cbs_trace::cpu_totals();
        let trace_t0 = cbs_trace::now_ns();

        // Ascending, bit-deduplicated grid: the canonical processing order.
        let mut grid: Vec<f64> = energies.to_vec();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("scan energies must not be NaN"));
        grid.dedup_by(|a, b| a.to_bits() == b.to_bits());
        assert!(!grid.is_empty(), "need at least one scan energy");

        // Calibrated auto-tuning: decide the policy cell *before* the
        // fingerprint, because the fingerprint carries the effective
        // (post-decision) policy.  A resumed sweep replays the checkpoint's
        // committed decision instead of re-probing — probe wall-clocks are
        // not reproducible, the recorded decision is.
        let auto_enabled = self.config.ss.auto_enabled();
        let decision: Option<AutoDecision> = if auto_enabled {
            match opts.resume.as_ref() {
                Some(cp) => Some(cp.auto.clone().ok_or_else(|| {
                    CheckpointError::Mismatch(
                        "checkpoint carries no auto-tuning decision: cannot resume a \
                         fixed-policy checkpoint into an auto-tuned sweep"
                            .into(),
                    )
                })?),
                None => Some(self.calibration_probe(grid[0], grid.len())),
            }
        } else {
            None
        };
        let ss_eff: SsConfig = match &decision {
            Some(d) => self.config.ss.resolve_auto(Some(d.cell())),
            None => self.config.ss,
        };

        // The sliced plan (partition geometry, per-slice configurations and
        // source blocks) depends only on the Hamiltonian blocks — their
        // dimension and whether they are real, neither of which varies with
        // the scan energy — and the *effective* configuration, so one
        // instance serves every scan energy of the sweep.  The
        // single-contour policy yields a trivial one-slice plan: the full
        // ring, or its upper half for real blocks.
        let plan = SlicedPlan::build(&self.problem_at(grid[0]), &ss_eff)
            .expect("invalid slice policy in sweep configuration");

        let mut fingerprint = self.config.fingerprint(self.period);
        // The *effective* operator policy is part of the resume contract:
        // an assembled `PrecondPolicy` without an attached pattern silently
        // falls back to matrix-free arithmetic, so a checkpoint written in
        // that state must not be resumable by a sweep that does carry a
        // pattern (or vice versa) — the two trajectories differ bitwise.
        let assembled_effective = ss_eff.precond.is_assembled() && self.pattern.is_some();
        fingerprint.push(assembled_effective as u64);
        // One further arithmetic-changing input of the assembled path: a
        // non-empty factored projector (CSR + low-rank split instead of the
        // expanded pattern) changes the trajectory bitwise, so it is part of
        // the resume contract.
        fingerprint.push(
            (assembled_effective && self.projector.as_ref().is_some_and(|p| !p.is_empty())) as u64,
        );
        // Auto-tuning joins the resume contract: the flag itself (an auto
        // and a fixed sweep of the same nominal config must not share
        // checkpoints), and, when on, the committed arithmetic-changing
        // policies (precond, slices — block is bitwise-interchangeable and
        // stays out, matching the fixed-config fingerprint rules).
        fingerprint.push(auto_enabled as u64);
        if let Some(d) = &decision {
            fingerprint.push(d.precond.trace_code() as u64);
            fingerprint.push(d.slices as u64);
        }
        // Whether the ring is mirrored (real blocks) decides the node list
        // and therefore the layout of every seed table in the checkpoint
        // (`n_solved x n_rh` per energy): a table written for one must not
        // seed the other.
        fingerprint.push(plan.is_mirrored() as u64);

        let mut st = State {
            records: Vec::new(),
            done: BTreeMap::new(),
            bank: SeedBank::new(),
            pending: Vec::new(),
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
            for (e, t) in cp.seed_bank {
                st.bank.entries.push_back((e, t));
            }
            st.pending = cp.pending_donations;
        }

        let checkpoint = |st: &State| SweepCheckpoint {
            fingerprint: fingerprint.clone(),
            auto: decision.clone(),
            initial_energies: grid.clone(),
            records: st.records.clone(),
            seed_bank: st.bank.entries.iter().cloned().collect(),
            pending_donations: st.pending.clone(),
        };

        // --- Initial grid, released round by round. -----------------------
        for round in self.config.schedule().rounds(grid.len()) {
            let batch: Vec<(f64, EnergyOrigin)> =
                round.into_iter().map(|i| (grid[i], EnergyOrigin::Initial(i))).collect();
            match self.solve_batch(batch, &plan, &ss_eff, executor, &mut st, &opts, &checkpoint)? {
                BatchStatus::Done => {}
                BatchStatus::BudgetExhausted => {
                    return Ok(RunOutcome::Interrupted(checkpoint(&st)))
                }
            }
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
                match self.solve_batch(
                    candidates.clone(),
                    &plan,
                    &ss_eff,
                    executor,
                    &mut st,
                    &opts,
                    &checkpoint,
                )? {
                    BatchStatus::Done => {}
                    BatchStatus::BudgetExhausted => {
                        return Ok(RunOutcome::Interrupted(checkpoint(&st)))
                    }
                }
                for (e, _) in &candidates {
                    let idx = st.done[&e.to_bits()];
                    visible.push(idx);
                }
            }
        }

        let extraction_ns = cbs_trace::cpu_totals()[cbs_trace::Stage::Extraction as usize]
            .wrapping_sub(cpu_start[cbs_trace::Stage::Extraction as usize]);
        // Span-merged wall attribution is available only while a trace
        // session records; `None` leaves the wall fields zero.
        let wall = cbs_trace::aggregate_window(trace_t0, cbs_trace::now_ns());
        Ok(RunOutcome::Complete(self.assemble(
            st,
            cbs_sparse::stage_delta(stage_start),
            extraction_ns,
            wall,
            decision,
        )))
    }

    /// Run the calibration probe: solve the first scan energy under 1-2
    /// candidate policy cells with a reduced configuration, fit a
    /// [`CostModel`] from the measured counters + stage wall-ns, and commit
    /// the predicted winner (slice count included).
    ///
    /// Determinism of the committed decision rests on four legs: the probe
    /// always runs on the [`SerialExecutor`] (so its counters are identical
    /// whatever executor drives the sweep); candidate order is fixed and
    /// the model only switches cells past the [`AUTO_MARGIN`] hysteresis
    /// (so timing jitter cannot flip a ranking with a real gap); probe
    /// measurements are memoized per process ([`probe_memo`]) so every
    /// sweep of the same workload in a process derives its decision from
    /// one consistent sample set — serial and rayon runs of the same
    /// system commit the *same* cell; and the decision is recorded in the
    /// checkpoint (so kill/resume *replays* it rather than re-probing,
    /// across process boundaries where the memo cannot reach).  Probe
    /// solves are throwaway — their solutions never enter the warm-start
    /// bank, so an auto sweep stays bit-identical to the fixed
    /// configuration it selects.
    fn calibration_probe(&self, energy: f64, n_energies: usize) -> AutoDecision {
        let n = self.h00.dim();
        let nominal = self.config.ss;
        let nnz = self.pattern.as_ref().map_or(n * n, cbs_sparse::AssembledPattern::nnz);
        // Candidate cells, cheapest-to-assemble first (the fixed priority
        // order the hysteresis respects).  With a pattern attached the axis
        // is the preconditioner ladder; without one every assembled policy
        // would silently fall back to matrix-free, so that one cell is
        // probed (its sample still feeds the slice tuner).
        let candidates: &[PrecondPolicy] = if self.pattern.is_some() {
            &[PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0]
        } else {
            &[PrecondPolicy::MatrixFree]
        };
        // The reduced probe configuration: enough quadrature and sources to
        // exercise the real kernels, cheap enough that the probe stays a
        // few percent of the sweep (the bench gate holds the auto row to
        // within 10% of the best fixed row, probe included).
        let probe_ss = SsConfig {
            n_int: (nominal.n_int / 2).max(4),
            n_rh: (nominal.n_rh / 2).max(2),
            bicg_tolerance: nominal.bicg_tolerance.max(1e-6),
            slice: cbs_core::SlicePolicy::single(),
            auto: false,
            ..nominal
        };
        // Everything the probe's counters and walls can depend on goes
        // into the memo key: system identity (dimension, pattern nnz,
        // probe energy, period), the reduced configuration, and the
        // candidate set.
        let mut key: Vec<u64> = vec![
            n as u64,
            nnz as u64,
            probe_ss.n_int as u64,
            probe_ss.n_mm as u64,
            probe_ss.n_rh as u64,
            probe_ss.bicg_max_iterations as u64,
            probe_ss.bicg_tolerance.to_bits(),
            probe_ss.seed,
            energy.to_bits(),
            self.period.to_bits(),
        ];
        key.extend(candidates.iter().map(|p| p.trace_code() as u64));
        // Get-or-measure under one lock: a second sweep probing the same key
        // waits for the first one's samples instead of committing its own
        // wall clocks.  The probe runs on `SerialExecutor` and never looks
        // the memo up again, so holding the lock across it cannot deadlock;
        // entries are only ever pushed whole, so a lock poisoned by a
        // panicking probe still guards a valid memo.
        let (samples, probe) = {
            let mut memo = probe_memo().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let hit =
                memo.iter().find(|(k, _, _)| *k == key).map(|(_, s, p)| (s.clone(), p.clone()));
            hit.unwrap_or_else(|| {
                let (samples, probe) =
                    self.measure_probe_candidates(energy, candidates, &probe_ss, n, nnz);
                memo.push((key, samples.clone(), probe.clone()));
                (samples, probe)
            })
        };
        let workload = WorkloadSpec {
            dimension: n,
            nnz,
            n_rh: nominal.n_rh,
            energies: n_energies.max(1),
            mirrored: self.problem_at(energy).is_conjugate_symmetric(),
        };
        let cell = CostModel::fit(&samples).and_then(|model| {
            let best = model.best_cell(&workload, AUTO_MARGIN)?;
            let slices = model.tune_slices(best, &workload, AUTO_MAX_SLICES, AUTO_MARGIN);
            Some(cbs_core::AutoCell {
                precond: PrecondPolicy::from_index(best.precond as u64)?,
                slices: slices as usize,
            })
        });
        // `resolve_auto` handles the degenerate-probe fallback (default
        // policy cell, warn-once); either way the *resolved* cell is what
        // the checkpoint commits, so resume replays exactly what ran.
        let resolved = nominal.resolve_auto(cell);
        AutoDecision {
            block: BlockPolicy::PerNode,
            precond: resolved.precond,
            slices: resolved.slice.slice_count(),
            probe,
        }
    }

    /// Measure every candidate cell with one throwaway probe solve each
    /// (the caller records the samples in the process-wide [`probe_memo`]).
    fn measure_probe_candidates(
        &self,
        energy: f64,
        candidates: &[PrecondPolicy],
        probe_ss: &SsConfig,
        n: usize,
        nnz: usize,
    ) -> (Vec<CalibrationSample>, Vec<ProbeSample>) {
        let mut samples = Vec::with_capacity(candidates.len());
        let mut probe = Vec::with_capacity(candidates.len());
        for &precond in candidates {
            let cfg = SsConfig { precond, ..*probe_ss };
            let problem = self.unshared_problem_at(energy);
            // Stage wall-ns needs a recording session; when an outer one is
            // already active we piggyback on it, otherwise we open our own
            // for the duration of the probe solve.
            let own_session = cbs_trace::TraceSession::begin(cbs_trace::TraceLevel::Stage);
            let t0_ns = cbs_trace::now_ns();
            let t0 = std::time::Instant::now(); // cbs-audit: allow(D002) reason="probe wall feeds the cost model; the committed decision is checkpoint-recorded so resume replays it bit-identically"
            let result = solve_qep_with(&problem, &cfg, &SerialExecutor);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let agg = cbs_trace::aggregate_window(t0_ns, cbs_trace::now_ns());
            if let Some(s) = own_session {
                s.finish();
            }
            let stage_wall = |stage: cbs_trace::Stage| agg.as_ref().map_or(0, |a| a.wall(stage));
            samples.push(CalibrationSample {
                cell: CellId { precond: precond.trace_code(), slices: 1 },
                dimension: n,
                nnz,
                n_rh: cfg.n_rh,
                energies: 1,
                iterations: result.total_bicg_iterations as u64,
                traversals: result.total_traversals as u64,
                assemblies: result.operator_assemblies as u64,
                wall_ns,
                kernel_wall_ns: stage_wall(cbs_trace::Stage::Kernel),
                precond_wall_ns: stage_wall(cbs_trace::Stage::IluFactor)
                    + stage_wall(cbs_trace::Stage::TriSweep),
                extraction_wall_ns: stage_wall(cbs_trace::Stage::Extraction),
            });
            probe.push(ProbeSample {
                precond,
                iterations: result.total_bicg_iterations as u64,
                traversals: result.total_traversals as u64,
                assemblies: result.operator_assemblies as u64,
                wall_ns,
            });
        }
        (samples, probe)
    }

    /// Solve one *logical* batch of energies (a release round or refinement
    /// generation) through a single flattened task pool and fold the
    /// outcomes into the state, checkpointing after each energy.
    ///
    /// `batch` is the full batch including energies a resumed run already
    /// completed; only the missing ones are solved.  Donor tables are read
    /// from the committed bank only, and the batch's own donations are
    /// committed together once its last energy finishes — so donors depend
    /// solely on which *batches* completed, never on where inside a batch a
    /// previous run was killed.
    #[allow(clippy::too_many_arguments)]
    fn solve_batch<E: TaskExecutor>(
        &self,
        batch: Vec<(f64, EnergyOrigin)>,
        plan: &SlicedPlan,
        ss: &SsConfig,
        executor: &E,
        st: &mut State,
        opts: &RunOptions<'_>,
        checkpoint: &dyn Fn(&State) -> SweepCheckpoint,
    ) -> Result<BatchStatus, CheckpointError> {
        let batch_bits: std::collections::BTreeSet<u64> =
            batch.iter().map(|(e, _)| e.to_bits()).collect();
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
        let warm = self.config.warm_start;
        // Trace context: each energy of the batch is tagged with the record
        // index it is about to receive (completion order; `assemble`'s final
        // ascending `energy_index` is only known at the end).  The handle
        // resolves to a no-op when no `cbs_trace::TraceSession` records.
        let record_base = st.records.len();
        let trace = TraceHandle::resolve(ss.trace).with_policy(ss.precond.trace_code());

        if !to_solve.is_empty() {
            let problems: Vec<QepProblem<'_>> =
                to_solve.iter().map(|&(e, _)| self.problem_at(e)).collect();
            let donors: Vec<Option<(f64, &SeedTable)>> = to_solve
                .iter()
                .map(|&(e, _)| if warm { st.bank.nearest(e) } else { None })
                .collect();
            let donor_energies: Vec<Option<f64>> =
                donors.iter().map(|d| d.map(|(e, _)| e)).collect();
            let groups: Vec<SolveGroup<'_, '_>> = problems
                .iter()
                .zip(&donors)
                .enumerate()
                .map(|(i, (p, d))| SolveGroup {
                    problem: p,
                    seeds: d.map(|(_, t)| t),
                    // Cold sweeps never consult the bank, so don't pay the
                    // memory of retaining every solution vector.
                    keep_solutions: warm,
                    trace: trace.with_energy(record_base + i),
                })
                .collect();

            let t0 = std::time::Instant::now(); // cbs-audit: allow(D002) reason="per-run wall-clock counter; resume stays bit-identical (timings are per-run)"
            let outcomes = solve_round(&groups, plan, ss, executor);
            st.linear_solve_seconds += t0.elapsed().as_secs_f64();
            drop(groups);
            drop(donors);

            for (i, ((energy, origin), mut outcome)) in
                to_solve.into_iter().zip(outcomes).enumerate()
            {
                // Single-contour energies run the historical extraction
                // (bitwise unchanged); partitioned contours extract per
                // slice and merge under the deterministic claim dedup.
                let _extract_ctx = trace.with_energy(record_base + i).enter();
                let result = if plan.is_single() {
                    let slice_outcome =
                        outcome.slices.pop().expect("single-slice plan yields one outcome");
                    extract_from_moments(
                        &problems[i],
                        ss,
                        &plan.v_cols[0],
                        slice_outcome.acc,
                        outcome.iterations,
                        outcome.matvecs,
                        outcome.traversals,
                        outcome.assemblies,
                        0.0,
                    )
                } else {
                    extract_sliced(&problems[i], ss, plan, std::mem::take(&mut outcome.slices), 0.0)
                };
                st.extraction_seconds += result.timings.extraction_seconds;
                // `energy_index` is a placeholder until assembly fixes the
                // grid.
                let points: Vec<CbsPoint> =
                    result.eigenpairs.iter().map(|p| classify_point(&problems[i], 0, p)).collect();
                let seeded = donor_energies[i];
                // Matvec / traversal totals come from the extraction result
                // so they include the metered residual-check applications,
                // matching `SsResult`'s accounting.
                let stats = EnergyStats {
                    bicg_iterations: outcome.iterations,
                    matvecs: result.total_matvecs,
                    operator_traversals: result.total_traversals,
                    operator_assemblies: result.operator_assemblies,
                    warm_solves: if seeded.is_some() { outcome.solves } else { 0 },
                    cold_solves: if seeded.is_some() { 0 } else { outcome.solves },
                    warm_iterations: if seeded.is_some() { outcome.iterations } else { 0 },
                    cold_iterations: if seeded.is_some() { 0 } else { outcome.iterations },
                    capped_solves: outcome.capped_solves,
                    accepted: result.eigenpairs.len(),
                    discarded: result.discarded,
                    numerical_rank: result.numerical_rank,
                };
                st.done.insert(energy.to_bits(), st.records.len());
                st.records.push(EnergyRecord {
                    energy,
                    origin,
                    seeded_from: seeded,
                    stats,
                    points,
                });
                if warm {
                    st.pending.push((energy, outcome.solutions));
                }
                st.new_energies += 1;
                if let Some(path) = opts.checkpoint_path {
                    checkpoint(st)
                        .save(path)
                        .map_err(|e| CheckpointError::Io(format!("checkpoint save failed: {e}")))?;
                }
            }
        }

        if !truncated {
            // The logical batch is complete: commit its donations (restored
            // prefix + freshly solved suffix, in completion order) to the
            // donor bank.  Donations of a *different* in-flight batch — a
            // resumed checkpoint replaying earlier, already-complete rounds
            // — stay pending until their own batch comes around.
            let mut i = 0;
            while i < st.pending.len() {
                if batch_bits.contains(&st.pending[i].0.to_bits()) {
                    let (e, t) = st.pending.remove(i);
                    st.bank.insert(e, t, self.config.seed_bank_capacity);
                } else {
                    i += 1;
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
    /// `energy_index` and aggregate the statistics.
    fn assemble(
        &self,
        st: State,
        stage: cbs_sparse::StageTimes,
        extraction_ns: u64,
        wall: Option<cbs_trace::StageAgg>,
        auto: Option<AutoDecision>,
    ) -> SweepResult {
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
            kernel_ns: stage.kernel_ns,
            precond_ns: stage.precond_ns,
            extraction_ns,
            kernel_wall_ns: wall.map_or(0, |w| w.wall(cbs_trace::Stage::Kernel)),
            precond_wall_ns: wall.map_or(0, |w| {
                w.wall(cbs_trace::Stage::IluFactor) + w.wall(cbs_trace::Stage::TriSweep)
            }),
            extraction_wall_ns: wall.map_or(0, |w| w.wall(cbs_trace::Stage::Extraction)),
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
            stats.operator_assemblies += rec.stats.operator_assemblies;
            stats.cold_bicg_iterations += rec.stats.cold_iterations;
            stats.warm_bicg_iterations += rec.stats.warm_iterations;
            stats.cold_solves += rec.stats.cold_solves;
            stats.warm_started_solves += rec.stats.warm_solves;
            stats.accepted += rec.stats.accepted;
            stats.discarded += rec.stats.discarded;
            if matches!(rec.origin, EnergyOrigin::Refined { .. }) {
                stats.refined_energies += 1;
            }
        }
        SweepResult { cbs: ComplexBandStructure { points, energies }, stats, records, auto }
    }
}

/// Convenience wrapper: sweep the given energies with `config`, mirroring
/// `cbs_core::compute_cbs_with`'s signature.
pub fn sweep_cbs<E: TaskExecutor>(
    h00: &dyn LinearOperator,
    h01: &dyn LinearOperator,
    period: f64,
    energies: &[f64],
    config: &SweepConfig,
    executor: &E,
) -> SweepResult {
    EnergySweep::new(h00, h01, period, *config).run(energies, executor)
}

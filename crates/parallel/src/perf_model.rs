//! Performance models of the hierarchical Sakurai-Sugiura solver: the
//! analytic cluster model behind the paper's scaling figures, and the
//! **measured-sample [`CostModel`]** behind policy auto-tuning.
//!
//! # The calibrated cost model (auto-tuning)
//!
//! [`CostModel`] is fitted from [`CalibrationSample`]s — per-policy-cell
//! measurements combining the storage-honest solver counters
//! (`operator_traversals`, `operator_assemblies`, the cold/warm iteration
//! split) with per-stage wall-ns from `cbs-trace` span aggregation — and
//! predicts the wall-clock of a sweep per `(block, precond, slices)` cell
//! for a given workload ([`WorkloadSpec`]: system size, operator nonzeros,
//! `N_rh`, energy count).  `cbs-sweep`'s calibration probe produces the
//! samples by running the first scan energy under 2–3 candidate cells; the
//! model commits the remainder of the sweep to the predicted winner.
//!
//! Decision discipline, because probe wall-clocks are noisy while the
//! solver counters are bit-deterministic:
//!
//! * candidate cells are ranked in a fixed priority order and a challenger
//!   only displaces the incumbent when its predicted wall-clock wins by a
//!   configurable hysteresis margin ([`CostModel::best_cell`]), so the
//!   ranking is stable against timing jitter whenever the real gap between
//!   cells exceeds the margin;
//! * the committed decision is recorded in the sweep checkpoint, so a
//!   killed sweep *replays* the recorded cell instead of
//!   re-probing — resume never re-decides.
//!
//! The slice-count tuner ([`CostModel::tune_slices`]) models a partitioned
//! contour as `S` independent solves over the shrunken per-slice source
//! block (`N_rh → max(2, ceil(2 N_rh / S))`, the `slice_ss_config` rule)
//! with extraction shrinking cubically in the per-slice subspace (the
//! Hankel SVD term): `S > 1` is only selected when the predicted
//! extraction shrinkage beats the extra solve volume, which at bench scale
//! it never does (`BENCH_sweep.json`: S = 2 costs ~2.9x wall).
//!
//! # The analytic cluster model (scaling figures)
//!
//! This machine has a single physical core, so wall-clock scaling to 2048
//! nodes cannot be measured directly.  Instead (see `DESIGN.md`)
//! [`PerformanceModel`] combines
//!
//! * a *measured* per-grid-point, per-iteration compute cost (calibrated by
//!   the harness from actual BiCG runs on this machine),
//! * the *exact* communication volumes of the bottom layer taken from the
//!   domain-decomposition geometry (halo planes per iteration, global
//!   reductions per iteration),
//! * the paper's observed load-imbalance of the middle layer (convergence of
//!   the BiCG iteration varies slightly across quadrature points),
//!
//! to predict the strong-scaling curves of Figures 8-10 and the intra-node
//! sweep of Table 2.

use serde::{Deserialize, Serialize};

use crate::hierarchy::ParallelLayout;

/// One `(precond, slices)` policy cell, identified by neutral
/// discriminants (this crate sits below `cbs-core` in the crate graph, so
/// the policy enums themselves cannot appear here).  The discriminants
/// match `cbs_core`'s: `precond` is `PrecondPolicy as u8` (0 matrix-free,
/// 2 ILU(0), 3 ILU(0)+SMW; 1 is retired), `slices` the angular slice count
/// (1 = single contour).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// `PrecondPolicy` discriminant (0–3).
    pub precond: u8,
    /// Angular slice count of the contour partition (1 = single).
    pub slices: u32,
}

/// One measured calibration sample: the deterministic solver counters plus
/// the wall-clock (total and per-stage, when a `cbs-trace` session
/// recorded) of a probe run under one policy cell.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CalibrationSample {
    /// The policy cell the sample was measured under.
    pub cell: CellId,
    /// Hamiltonian dimension of the probed system.
    pub dimension: usize,
    /// Nonzeros of the operator (assembled pattern nnz, or `dimension²`
    /// for dense/matrix-free operators).
    pub nnz: usize,
    /// Right-hand sides of the probe solve.
    pub n_rh: usize,
    /// Scan energies covered by the sample (the probe uses 1).
    pub energies: usize,
    /// BiCG iterations (bit-deterministic per cell).
    pub iterations: u64,
    /// Operator-storage traversals (the block/assembled data-path counter).
    pub traversals: u64,
    /// Numeric pattern refills (zero under matrix-free).
    pub assemblies: u64,
    /// Measured wall-clock of the sample (nanoseconds).
    pub wall_ns: u64,
    /// Kernel-stage wall-ns from span aggregation; zero when untraced.
    pub kernel_wall_ns: u64,
    /// Preconditioner-stage (ILU factor + triangular sweep) wall-ns; zero
    /// when untraced.
    pub precond_wall_ns: u64,
    /// Extraction-stage wall-ns; zero when untraced.
    pub extraction_wall_ns: u64,
}

impl CalibrationSample {
    /// A sample the model can fit: every workload axis nonzero and a
    /// positive, finite wall-clock.
    pub fn is_valid(&self) -> bool {
        self.dimension > 0
            && self.nnz > 0
            && self.n_rh > 0
            && self.energies > 0
            && self.iterations > 0
            && self.wall_ns > 0
    }
}

/// The workload a prediction is asked for.
///
/// There is no node count here: a cell's fitted `solve_unit` is per
/// `(energy x nnz x rhs)` *of the probe's own node list*, so predictions
/// rank cells against each other rather than in absolute seconds.  What
/// does matter is [`mirrored`](Self::mirrored), because it is the one case
/// where two candidates solve different fractions of their node lists.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Hamiltonian dimension.
    pub dimension: usize,
    /// Operator nonzeros.
    pub nnz: usize,
    /// Right-hand sides per energy.
    pub n_rh: usize,
    /// Scan energies in the sweep.
    pub energies: usize,
    /// The single contour runs on the mirrored half ring (real Hamiltonian:
    /// only the upper half-plane nodes are solved, and the probe measured
    /// exactly that).  Sector slices are not conjugate-symmetric and solve
    /// every node they list, so relative to the probed single contour a
    /// sliced candidate pays for twice the nodes.
    pub mirrored: bool,
}

impl WorkloadSpec {
    /// A workload the model can predict for (every axis nonzero).
    pub fn is_valid(&self) -> bool {
        self.dimension > 0 && self.nnz > 0 && self.n_rh > 0 && self.energies > 0
    }
}

/// Per-cell unit costs fitted from one or more samples.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct CellFit {
    /// Solve-phase nanoseconds per `(energy x nnz x rhs)` unit of work.
    solve_unit: f64,
    /// Extraction nanoseconds per energy.
    extraction_per_energy: f64,
    /// Samples folded into this fit (running mean).
    samples: u32,
}

/// A cost model fitted from measured [`CalibrationSample`]s.
///
/// A pure function of its samples: identical sample sets (in order) fit to
/// identical models and make identical decisions — the property the
/// sweep-level probe-replay determinism tests rest on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Fitted cells in first-seen sample order — the candidate priority
    /// order [`best_cell`](Self::best_cell)'s hysteresis respects.
    cells: Vec<(CellId, CellFit)>,
}

impl CostModel {
    /// Fit a model from measured samples.  Invalid samples (zero counters,
    /// zero wall) are skipped; multiple samples of one cell fold into a
    /// running mean.  Returns `None` when no valid sample remains — the
    /// caller's cue to fall back to the default policy cell.
    pub fn fit(samples: &[CalibrationSample]) -> Option<Self> {
        let mut cells: Vec<(CellId, CellFit)> = Vec::new();
        for s in samples {
            if !s.is_valid() {
                continue;
            }
            // The solve phase is everything that is not extraction; clamp
            // at 1 ns so a (mis-)traced sample whose extraction spans cover
            // the whole wall still fits a positive solve unit.
            let solve_wall = (s.wall_ns.saturating_sub(s.extraction_wall_ns)).max(1) as f64;
            let volume = (s.energies * s.nnz * s.n_rh) as f64;
            let solve_unit = solve_wall / volume;
            let extraction_per_energy = s.extraction_wall_ns as f64 / s.energies as f64;
            if !solve_unit.is_finite() || solve_unit <= 0.0 || !extraction_per_energy.is_finite() {
                continue;
            }
            match cells.iter_mut().find(|(c, _)| *c == s.cell) {
                Some((_, fit)) => {
                    let n = fit.samples as f64;
                    fit.solve_unit = (fit.solve_unit * n + solve_unit) / (n + 1.0);
                    fit.extraction_per_energy =
                        (fit.extraction_per_energy * n + extraction_per_energy) / (n + 1.0);
                    fit.samples += 1;
                }
                None => {
                    cells.push((s.cell, CellFit { solve_unit, extraction_per_energy, samples: 1 }));
                }
            }
        }
        if cells.is_empty() {
            None
        } else {
            Some(Self { cells })
        }
    }

    /// The fitted cells, in candidate priority (first-seen) order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells.iter().map(|(c, _)| *c)
    }

    /// Predicted wall-clock (nanoseconds) of running `w` under `cell`.
    ///
    /// `energies x (solve_unit x nnz x n_rh + extraction_per_energy)` —
    /// strictly positive and finite for any valid workload, and monotone
    /// non-decreasing in `nnz` and in `energies` at a fixed cell (the
    /// structural invariants the workspace proptests lock).  `None` when
    /// the cell was never fitted or the workload is degenerate.
    pub fn predict(&self, cell: CellId, w: &WorkloadSpec) -> Option<f64> {
        if !w.is_valid() {
            return None;
        }
        let (_, fit) = self.cells.iter().find(|(c, _)| *c == cell)?;
        let per_energy = fit.solve_unit * (w.nnz * w.n_rh) as f64 + fit.extraction_per_energy;
        Some(w.energies as f64 * per_energy)
    }

    /// Pick the cheapest fitted cell for `w` with hysteresis: cells are
    /// visited in fit (candidate priority) order and a challenger only
    /// displaces the incumbent when its predicted wall-clock is at least
    /// `margin` (e.g. `0.10` = 10%) below the incumbent's — timing jitter
    /// smaller than the margin cannot flip the decision.
    pub fn best_cell(&self, w: &WorkloadSpec, margin: f64) -> Option<CellId> {
        let mut best: Option<(CellId, f64)> = None;
        for (cell, _) in &self.cells {
            let Some(t) = self.predict(*cell, w) else { continue };
            best = match best {
                None => Some((*cell, t)),
                Some((bc, bt)) if t < bt * (1.0 - margin) => {
                    let _ = bc;
                    Some((*cell, t))
                }
                keep => keep,
            };
        }
        best.map(|(c, _)| c)
    }

    /// The slice-count tuner: starting from single-contour `cell`, predict
    /// the wall-clock of partitioning the contour into `S` sectors for
    /// `S in 2..=max_slices` and return the winner — `1` unless a sliced
    /// variant beats the single contour by at least `margin`.
    ///
    /// The sliced prediction mirrors the engine's shrinkage rule
    /// (`slice_ss_config`): each of the `S` slices solves its own full
    /// quadrature grid over `n_rh_s = clamp(ceil(2 n_rh / S), 2, n_rh-1)`
    /// right-hand sides (solve volume `S x n_rh_s >= 2 n_rh` — always at
    /// least doubled, and doubled again when the single contour is
    /// [`mirrored`](WorkloadSpec::mirrored), because slices solve every node
    /// they list), while extraction shrinks cubically with the per-slice
    /// subspace (the Hankel SVD term).  Slicing therefore only wins when
    /// extraction dominates the solve phase, which at bench scale it never
    /// does.
    pub fn tune_slices(&self, cell: CellId, w: &WorkloadSpec, max_slices: u32, margin: f64) -> u32 {
        let Some(single) = self.predict(cell, w) else { return 1 };
        let Some((_, fit)) = self.cells.iter().find(|(c, _)| *c == cell) else { return 1 };
        if !w.is_valid() {
            return 1;
        }
        let mut best = (1u32, single);
        for s in 2..=max_slices.max(1) {
            let n_rh_s =
                (2 * w.n_rh).div_ceil(s as usize).max(2).min(w.n_rh.saturating_sub(1).max(1));
            let shrink = n_rh_s as f64 / w.n_rh as f64;
            let solved_nodes = if w.mirrored { 2.0 } else { 1.0 };
            let solve = fit.solve_unit * (w.nnz * n_rh_s) as f64 * s as f64 * solved_nodes;
            let extraction = fit.extraction_per_energy * s as f64 * shrink.powi(3);
            let sliced = w.energies as f64 * (solve + extraction);
            if sliced < best.1 * (1.0 - margin) {
                best = (s, sliced);
            }
        }
        best.0
    }
}

/// Hardware parameters of one node and of the interconnect.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MachineModel {
    /// Cores per node (Xeon Phi 7250: 68).
    pub cores_per_node: usize,
    /// Sustained per-core throughput relative to the calibration core
    /// (the KNL core is slower per-core than a desktop Xeon; < 1).
    pub core_speed_ratio: f64,
    /// Parallel efficiency lost per doubling of threads inside a node
    /// (memory-bandwidth saturation of the many-core processor).
    pub thread_efficiency: f64,
    /// Point-to-point message latency (seconds).
    pub network_latency: f64,
    /// Point-to-point bandwidth (bytes/second).
    pub network_bandwidth: f64,
    /// Latency of a global reduction among `p` processes is modelled as
    /// `allreduce_latency * log2(p)`.
    pub allreduce_latency: f64,
}

impl MachineModel {
    /// Parameters approximating an Oakforest-PACS node (Intel Xeon Phi 7250,
    /// Omni-Path interconnect).
    pub fn oakforest_pacs() -> Self {
        Self {
            cores_per_node: 68,
            core_speed_ratio: 0.35,
            thread_efficiency: 0.85,
            network_latency: 2.0e-6,
            network_bandwidth: 12.5e9,
            allreduce_latency: 3.0e-6,
        }
    }
}

/// Workload parameters of one Sakurai-Sugiura solve.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Hamiltonian dimension (grid points).
    pub dimension: usize,
    /// Average non-zeros per row of the sparse blocks.
    pub nnz_per_row: f64,
    /// Lateral plane size `Nx * Ny` (halo planes exchanged per iteration).
    pub plane_size: usize,
    /// Finite-difference half-width (halo depth).
    pub nf: usize,
    /// Number of quadrature points per circle (`N_int`).
    pub n_int: usize,
    /// The Hamiltonian is real and the contour the single ring, so only the
    /// upper half-plane nodes are solved ([`solved_nodes`](Self::solved_nodes)).
    /// `false` models the paper's runs, which solve all `N_int`.
    pub conjugate_symmetric: bool,
    /// Number of right-hand sides (`N_rh`).
    pub n_rh: usize,
    /// Average BiCG iterations needed per linear system.
    pub bicg_iterations: f64,
    /// Measured time of one BiCG iteration per grid point on the
    /// calibration core (seconds); supplied by the harness.
    pub seconds_per_point_iteration: f64,
    /// Relative spread of BiCG iteration counts across quadrature points
    /// (drives the middle-layer load imbalance; the paper observes ~10-25%).
    pub convergence_spread: f64,
}

/// Predicted timing of one configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PredictedTime {
    /// Time spent in local computation (seconds).
    pub compute_seconds: f64,
    /// Time spent in halo exchanges (seconds).
    pub halo_seconds: f64,
    /// Time spent in global reductions (seconds).
    pub reduction_seconds: f64,
    /// Extra time from load imbalance across the middle layer (seconds).
    pub imbalance_seconds: f64,
}

impl PredictedTime {
    /// Total predicted wall-clock time.
    pub fn total(&self) -> f64 {
        self.compute_seconds + self.halo_seconds + self.reduction_seconds + self.imbalance_seconds
    }
}

impl WorkloadModel {
    /// Quadrature nodes actually solved per right-hand side — the width of
    /// the middle parallel layer: `N_int`, or `ceil(N_int / 2)` under the
    /// conjugate-symmetric quadrature.
    pub fn solved_nodes(&self) -> usize {
        if self.conjugate_symmetric {
            self.n_int.div_ceil(2)
        } else {
            self.n_int
        }
    }
}

/// The performance model: machine + workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PerformanceModel {
    /// Hardware description.
    pub machine: MachineModel,
    /// Workload description.
    pub workload: WorkloadModel,
}

impl PerformanceModel {
    /// Predict the wall-clock time of the linear-solve phase (step 1 of the
    /// algorithm, the dominant cost) under a given layout.
    pub fn predict(&self, layout: &ParallelLayout) -> PredictedTime {
        let w = &self.workload;
        let m = &self.machine;

        // Work per process: the (solved nodes x N_rh) systems are
        // distributed over the top and middle layers; each system costs
        // `bicg_iterations` iterations over `dimension / domains` local
        // points.
        let nodes = w.solved_nodes() as f64;
        let systems_per_group = (nodes / layout.quadrature_groups as f64).ceil()
            * (w.n_rh as f64 / layout.rhs_groups as f64).ceil();
        let local_points = w.dimension as f64 / layout.domains as f64;

        // Per-iteration, per-point compute time on one KNL process with
        // `threads_per_process` threads (imperfect thread scaling).
        let thread_speedup = effective_threads(layout.threads_per_process, m.thread_efficiency);
        let point_time = w.seconds_per_point_iteration / (m.core_speed_ratio * thread_speedup);

        // Boundary overhead of the domain decomposition: duplicated stencil
        // work, packing/unpacking and extra memory traffic proportional to
        // the halo-to-interior ratio.  This is what makes over-decomposing a
        // small grid (Table 2, N_dm = 64 on 20 z-planes) counter-productive.
        let halo_points = 2.0 * (w.nf * w.plane_size) as f64;
        let boundary_overhead =
            if layout.domains > 1 { 1.0 + 0.05 * halo_points / local_points } else { 1.0 };

        let compute_seconds =
            systems_per_group * w.bicg_iterations * local_points * point_time * boundary_overhead;

        // Halo exchange: 2 matrix-vector products per BiCG iteration, each
        // exchanging `nf` planes with up to two neighbours (z decomposition).
        let halo_seconds = if layout.domains > 1 {
            let bytes = (w.plane_size * w.nf * 16) as f64; // Complex64 = 16 B
            let per_exchange = 2.0 * (m.network_latency + bytes / m.network_bandwidth);
            systems_per_group * w.bicg_iterations * 2.0 * per_exchange
        } else {
            0.0
        };

        // Global reductions: 2 inner products + 1 norm per matrix-vector pair
        // per iteration across the `domains` processes of one solve.
        let reduction_seconds = if layout.domains > 1 {
            let per_reduction = m.allreduce_latency * (layout.domains as f64).log2().max(1.0);
            systems_per_group * w.bicg_iterations * 3.0 * per_reduction
        } else {
            0.0
        };

        // Middle-layer load imbalance: the slowest quadrature point in a
        // group determines its finish time.  With `g` points per group the
        // expected maximum of the iteration spread grows roughly with the
        // fraction of points handled per group.
        let quad_per_group = (nodes / layout.quadrature_groups as f64).ceil();
        let imbalance_factor = w.convergence_spread * (1.0 - quad_per_group / nodes);
        let imbalance_seconds = compute_seconds * imbalance_factor;

        PredictedTime { compute_seconds, halo_seconds, reduction_seconds, imbalance_seconds }
    }

    /// Predicted speed-up of `layout` relative to the serial layout.
    pub fn speedup(&self, layout: &ParallelLayout) -> f64 {
        let serial = self.predict(&ParallelLayout::serial()).total();
        serial / self.predict(layout).total()
    }

    /// Strong-scaling sweep of one layer keeping the others fixed; returns
    /// `(processes_in_layer, predicted_total_seconds, speedup_vs_first)`.
    pub fn scaling_sweep(
        &self,
        base: ParallelLayout,
        layer: ScalingLayer,
        counts: &[usize],
    ) -> Vec<(usize, f64, f64)> {
        let mut out = Vec::with_capacity(counts.len());
        let mut first_time = None;
        for &c in counts {
            let mut layout = base;
            match layer {
                ScalingLayer::RightHandSides => layout.rhs_groups = c,
                ScalingLayer::Quadrature => layout.quadrature_groups = c,
                ScalingLayer::Domain => layout.domains = c,
            }
            let t = self.predict(&layout).total();
            let f = *first_time.get_or_insert(t);
            out.push((c, t, f / t));
        }
        out
    }

    /// Predict the elapsed time of `iterations` BiCG iterations on a single
    /// 64-core node split between `threads` OpenMP threads and `domains`
    /// MPI domains (the paper's Table 2).
    pub fn intranode_time(&self, threads: usize, domains: usize, iterations: f64) -> f64 {
        let layout = ParallelLayout {
            rhs_groups: 1,
            quadrature_groups: 1,
            domains,
            threads_per_process: threads,
        };
        let mut model = *self;
        // Table 2 measures a single linear system.
        model.workload.n_int = 1;
        model.workload.conjugate_symmetric = false;
        model.workload.n_rh = 1;
        model.workload.bicg_iterations = iterations;
        // Intra-node "messages" are memory copies: far lower latency.
        model.machine.network_latency = 3.0e-7;
        model.machine.allreduce_latency = 4.0e-7;
        model.machine.network_bandwidth = 80.0e9;
        model.predict(&layout).total()
    }
}

/// Which layer a scaling sweep varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingLayer {
    /// Top layer (right-hand sides).
    RightHandSides,
    /// Middle layer (quadrature points).
    Quadrature,
    /// Bottom layer (domain decomposition).
    Domain,
}

/// Effective speedup of `t` threads with per-doubling efficiency `eff`.
fn effective_threads(t: usize, eff: f64) -> f64 {
    if t <= 1 {
        return 1.0;
    }
    let doublings = (t as f64).log2();
    (t as f64) * eff.powf(doublings)
}

/// A reasonable default workload for quick experiments; the harness
/// overrides the measured fields.
pub fn default_workload(dimension: usize, plane_size: usize) -> WorkloadModel {
    WorkloadModel {
        dimension,
        nnz_per_row: 25.0,
        plane_size,
        nf: 4,
        n_int: 32,
        conjugate_symmetric: false,
        n_rh: 16,
        bicg_iterations: 500.0,
        seconds_per_point_iteration: 2.0e-8,
        convergence_spread: 0.2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PerformanceModel {
        PerformanceModel {
            machine: MachineModel::oakforest_pacs(),
            workload: default_workload(72 * 72 * 20, 72 * 72),
        }
    }

    #[test]
    fn top_layer_scales_almost_ideally() {
        let m = model();
        let base = ParallelLayout {
            rhs_groups: 1,
            quadrature_groups: 2,
            domains: 1,
            threads_per_process: 68,
        };
        let sweep = m.scaling_sweep(base, ScalingLayer::RightHandSides, &[1, 2, 4, 8, 16]);
        for (i, &(p, _, s)) in sweep.iter().enumerate() {
            let ideal = p as f64 / sweep[0].0 as f64;
            assert!(s > 0.9 * ideal, "top layer speedup {s} at p={p} (ideal {ideal})");
            if i > 0 {
                assert!(s > sweep[i - 1].2, "speedup must increase");
            }
        }
    }

    #[test]
    fn bottom_layer_is_less_efficient_than_top_layer() {
        let m = model();
        let top = m.speedup(&ParallelLayout {
            rhs_groups: 16,
            quadrature_groups: 1,
            domains: 1,
            threads_per_process: 1,
        });
        let bottom = m.speedup(&ParallelLayout {
            rhs_groups: 1,
            quadrature_groups: 1,
            domains: 16,
            threads_per_process: 1,
        });
        assert!(top > bottom, "top {top} should beat bottom {bottom}");
        assert!(bottom > 1.0, "bottom layer must still help ({bottom})");
    }

    #[test]
    fn middle_layer_efficiency_between_top_and_bottom() {
        let m = model();
        let top = m.speedup(&ParallelLayout {
            rhs_groups: 16,
            quadrature_groups: 1,
            domains: 1,
            threads_per_process: 1,
        });
        let mid = m.speedup(&ParallelLayout {
            rhs_groups: 1,
            quadrature_groups: 16,
            domains: 1,
            threads_per_process: 1,
        });
        let bottom = m.speedup(&ParallelLayout {
            rhs_groups: 1,
            quadrature_groups: 1,
            domains: 16,
            threads_per_process: 1,
        });
        assert!(top >= mid, "top {top} >= middle {mid}");
        assert!(mid > bottom, "middle {mid} > bottom {bottom}");
    }

    #[test]
    fn larger_systems_scale_better_in_the_bottom_layer() {
        // The paper observes that domain decomposition becomes more efficient
        // as the system grows (communication surface / volume shrinks).
        let small = PerformanceModel {
            machine: MachineModel::oakforest_pacs(),
            workload: default_workload(72 * 72 * 20, 72 * 72),
        };
        let large = PerformanceModel {
            machine: MachineModel::oakforest_pacs(),
            workload: default_workload(72 * 72 * 640, 72 * 72),
        };
        let layout = ParallelLayout {
            rhs_groups: 1,
            quadrature_groups: 1,
            domains: 16,
            threads_per_process: 1,
        };
        assert!(large.speedup(&layout) > small.speedup(&layout));
    }

    #[test]
    fn intranode_sweep_has_an_interior_optimum() {
        // Table 2: neither pure-OpenMP nor pure-MPI is optimal on 64 cores.
        let m = model();
        let splits: Vec<(usize, usize)> =
            vec![(1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (64, 1)];
        let times: Vec<f64> = splits.iter().map(|&(t, d)| m.intranode_time(t, d, 1000.0)).collect();
        let best = times.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(
            best > 0 && best < splits.len() - 1,
            "optimum should be interior, got index {best}: {times:?}"
        );
    }

    #[test]
    fn conjugate_symmetric_workload_counts_solved_nodes() {
        let full = model();
        let mut half = full;
        half.workload.conjugate_symmetric = true;
        assert_eq!(full.workload.solved_nodes(), 32);
        assert_eq!(half.workload.solved_nodes(), 16);
        let layout = |quadrature_groups| ParallelLayout {
            rhs_groups: 1,
            quadrature_groups,
            domains: 1,
            threads_per_process: 68,
        };
        // Half the systems per group while both rings fill their groups ...
        let (f, h) = (full.predict(&layout(16)), half.predict(&layout(16)));
        assert!((h.compute_seconds - 0.5 * f.compute_seconds).abs() < 1e-9 * f.compute_seconds);
        // ... and the middle layer saturates at the 16 solved nodes.
        assert_eq!(half.predict(&layout(32)).compute_seconds, h.compute_seconds);
        assert!(full.predict(&layout(32)).compute_seconds < f.compute_seconds);
    }

    #[test]
    fn effective_threads_monotone_but_sublinear() {
        assert_eq!(effective_threads(1, 0.9), 1.0);
        let t4 = effective_threads(4, 0.9);
        let t8 = effective_threads(8, 0.9);
        assert!(t4 > 1.0 && t8 > t4);
        assert!(t8 < 8.0);
    }

    // ---- calibrated cost model -------------------------------------------

    fn cell(precond: u8) -> CellId {
        CellId { precond, slices: 1 }
    }

    fn sample(precond: u8, wall_ns: u64, extraction_wall_ns: u64) -> CalibrationSample {
        CalibrationSample {
            cell: cell(precond),
            dimension: 512,
            nnz: 18 * 512,
            n_rh: 4,
            energies: 1,
            iterations: 1000,
            traversals: 4000,
            assemblies: 8,
            wall_ns,
            kernel_wall_ns: wall_ns / 2,
            precond_wall_ns: wall_ns / 4,
            extraction_wall_ns,
        }
    }

    #[test]
    fn cost_model_prefers_the_measured_winner() {
        // Shapes mirror BENCH_sweep.json: ILU(0) roughly halves the
        // matrix-free wall; assembled sits in between.
        let m = CostModel::fit(&[
            sample(0, 120_000_000, 400_000),
            sample(1, 90_000_000, 400_000),
            sample(2, 55_000_000, 400_000),
        ])
        .unwrap();
        let w =
            WorkloadSpec { dimension: 512, nnz: 18 * 512, n_rh: 4, energies: 8, mirrored: false };
        assert_eq!(m.best_cell(&w, 0.10), Some(cell(2)));
    }

    #[test]
    fn hysteresis_keeps_the_incumbent_inside_the_margin() {
        // 5% apart: the challenger does not clear the 10% margin, so the
        // first-fitted (priority) cell wins regardless of jitter sign.
        let m = CostModel::fit(&[sample(1, 100_000_000, 400_000), sample(2, 95_000_000, 400_000)])
            .unwrap();
        let w =
            WorkloadSpec { dimension: 512, nnz: 18 * 512, n_rh: 4, energies: 8, mirrored: false };
        assert_eq!(m.best_cell(&w, 0.10), Some(cell(1)));
    }

    #[test]
    fn predictions_scale_with_workload() {
        let m = CostModel::fit(&[sample(2, 55_000_000, 400_000)]).unwrap();
        let w1 =
            WorkloadSpec { dimension: 512, nnz: 18 * 512, n_rh: 4, energies: 1, mirrored: false };
        let w8 = WorkloadSpec { energies: 8, ..w1 };
        let wide = WorkloadSpec { nnz: 36 * 512, ..w1 };
        let p1 = m.predict(cell(2), &w1).unwrap();
        assert!(p1.is_finite() && p1 > 0.0);
        assert!(m.predict(cell(2), &w8).unwrap() >= p1);
        assert!(m.predict(cell(2), &wide).unwrap() >= p1);
    }

    #[test]
    fn fit_skips_degenerate_samples_and_reports_none_when_empty() {
        let dead = CalibrationSample { wall_ns: 0, ..sample(1, 0, 0) };
        assert!(CostModel::fit(&[dead]).is_none());
        assert!(CostModel::fit(&[]).is_none());
        // One valid sample among garbage still fits.
        let m = CostModel::fit(&[dead, sample(1, 100_000_000, 400_000)]).unwrap();
        assert_eq!(m.cells().count(), 1);
    }

    #[test]
    fn slice_tuner_never_slices_when_solve_dominates() {
        // Bench-scale shape: extraction is ~0.3% of wall, so the doubled
        // solve volume of any S>1 partition can never pay for itself.
        let m = CostModel::fit(&[sample(2, 55_000_000, 165_000)]).unwrap();
        let w =
            WorkloadSpec { dimension: 512, nnz: 18 * 512, n_rh: 4, energies: 8, mirrored: false };
        assert_eq!(m.tune_slices(cell(2), &w, 4, 0.10), 1);
    }

    #[test]
    fn slice_tuner_engages_when_extraction_dominates() {
        // A synthetic extraction-bound sample: cubically shrinking the
        // Hankel work across slices beats the extra solve volume.
        let m = CostModel::fit(&[sample(2, 100_000_000, 99_900_000)]).unwrap();
        let w =
            WorkloadSpec { dimension: 512, nnz: 18 * 512, n_rh: 16, energies: 8, mirrored: false };
        assert!(m.tune_slices(cell(2), &w, 4, 0.10) > 1);
    }

    #[test]
    fn slice_tuner_charges_slices_for_the_nodes_a_mirrored_ring_skips() {
        // A sample balanced so that slicing just pays off against a full
        // single contour: against a mirrored one — whose probe solved half
        // the nodes, while slices solve all of theirs — it no longer does.
        let m = CostModel::fit(&[sample(2, 100_000_000, 95_000_000)]).unwrap();
        let full =
            WorkloadSpec { dimension: 512, nnz: 18 * 512, n_rh: 16, energies: 8, mirrored: false };
        assert!(m.tune_slices(cell(2), &full, 4, 0.10) > 1);
        let mirrored = WorkloadSpec { mirrored: true, ..full };
        assert_eq!(m.tune_slices(cell(2), &mirrored, 4, 0.10), 1);
    }
}

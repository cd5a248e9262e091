//! The analytic cluster model behind the paper's scaling figures.
//!
//! This machine has a single physical core, so wall-clock scaling to 2048
//! nodes cannot be measured directly.  Instead [`PerformanceModel`] combines
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
}

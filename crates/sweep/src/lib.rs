//! # cbs-sweep
//!
//! Batched, adaptive orchestration of multi-energy complex band structure
//! scans — the production driver for the paper's headline workloads
//! (Figures 6 and 11), which are hundreds of independent Sakurai-Sugiura
//! QEP solves, one per scan energy.
//!
//! This crate is the one driver of those solves (one energy alone is
//! `cbs_core::solve_qep_with`).  It runs them as the paper does, each
//! energy solved independently and cold, but dispatched together:
//!
//! * **Flattening** — the initial grid's solves become one task pool
//!   dispatched through the `cbs_parallel::TaskExecutor` seam — `(energy ×
//!   quadrature-node)` block jobs, each advancing all `N_rh` right-hand
//!   sides through fused block matvecs — so a sweep saturates a wide
//!   executor even when one energy's grid is small.  Each energy is one
//!   group of the shared `cbs_core::solve_pool`, and bit-identical to its
//!   own `cbs_core::solve_qep_with`.
//! * **Adaptive refinement** — intervals where the propagating-channel
//!   count changes (or a [`RefinementPredicate`] such as the
//!   band-edge-bracketing [`BandEdgeRefiner`] fires) are bisected up to a
//!   configurable budget, one pool per generation, resolving band edges
//!   cheaply.
//! * **Checkpointing** — a [`SweepCheckpoint`] (format v20: finished
//!   energies' results, bit-exact floats, a checksum) is written after
//!   every extracted energy; a killed sweep resumes bit-identically
//!   ([`checkpoint`]).
//!
//! Entry point: [`EnergySweep`], e.g.
//! `EnergySweep::new(h00, h01, period, SweepConfig::new(ss)).run(&energies, &executor)`.
//! Determinism — serial/rayon bit-identity, equivalence with
//! the per-energy solve, and resume bit-identity — is locked in by
//! `tests/sweep_determinism.rs` at the workspace root.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod sweep;

pub use checkpoint::{CheckpointError, SweepCheckpoint};
pub use config::SweepConfig;
pub use sweep::{
    AutoDecision, BandEdgeRefiner, EnergyOrigin, EnergyRecord, EnergyStats, EnergySweep,
    ProbeSample, RefinementPredicate, RunOptions, RunOutcome, SweepResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_core::{SsConfig, PROPAGATING_TOLERANCE};
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::SerialExecutor;
    use cbs_sparse::DenseOp;
    use rand::SeedableRng;

    fn random_blocks(n: usize, seed: u64, h01_scale: f64) -> (DenseOp, DenseOp) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(h01_scale, 0.0));
        (DenseOp::new(h00), DenseOp::new(h01))
    }

    #[test]
    fn sweep_produces_classified_points() {
        let (op00, op01) = random_blocks(10, 601, 0.3);
        let energies = [-0.3, 0.0, 0.3];
        let ss = SsConfig {
            n_rh: 6,
            n_mm: 6,
            bicg_tolerance: 1e-11,
            residual_cutoff: 1e-6,
            ..SsConfig::small()
        };
        let run = EnergySweep::new(&op00, &op01, 1.7, SweepConfig::new(ss))
            .run(&energies, &SerialExecutor);
        assert_eq!(run.cbs.energies.len(), 3);
        assert!(run.stats.total_bicg_iterations > 0);
        assert_eq!(
            run.stats.accepted,
            run.cbs.points.len(),
            "every accepted eigenpair becomes a CBS point"
        );
        // The vestigial warm/cold split reads total / 0.
        let s = &run.stats;
        assert_eq!([s.cold_bicg_iterations, s.warm_bicg_iterations], [s.total_bicg_iterations, 0]);
        assert_eq!([s.warm_started_solves, s.refined_energies], [0, 0]);
        let g_half = std::f64::consts::PI / 1.7;
        for p in &run.cbs.points {
            // k_re folded into the first Brillouin zone.
            assert!(p.k_re.abs() <= g_half + 1e-9);
            // Classification consistent with |λ|.
            assert_eq!(p.propagating, (p.lambda.abs() - 1.0).abs() < PROPAGATING_TOLERANCE);
            // λ and k are consistent: |λ| = exp(-k_im * a).
            assert!(((-p.k_im * 1.7).exp() - p.lambda.abs()).abs() < 1e-9);
            assert!(p.residual <= ss.residual_cutoff);
        }
        // Per-energy grouping goes through `energy_index`, not float
        // comparison: every point carries a valid index and `at_energy`
        // partitions the point set.
        let mut grouped = 0;
        for (i, &e) in run.cbs.energies.iter().enumerate() {
            for p in run.cbs.at_energy(i) {
                assert_eq!(p.energy_index, i);
                assert_eq!(p.energy, e);
                grouped += 1;
            }
        }
        assert_eq!(grouped, run.cbs.points.len());
        // Channel counts cover every energy.
        let counts = run.cbs.channel_counts();
        assert_eq!(counts.len(), 3);
        let total_prop: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total_prop, run.cbs.propagating().count());
        assert_eq!(
            run.cbs.points.len(),
            run.cbs.propagating().count() + run.cbs.evanescent().count()
        );
    }

    /// An empty grid is an empty sweep, not a panic; a checkpoint of a
    /// non-empty grid still refuses to resume it.
    #[test]
    fn empty_grid_is_an_empty_sweep() {
        let (op00, op01) = random_blocks(8, 602, 0.35);
        let ss = SsConfig { n_int: 8, n_mm: 2, n_rh: 2, ..SsConfig::small() };
        let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(ss));
        let run = sweep.run(&[], &SerialExecutor);
        assert!(run.cbs.points.is_empty() && run.cbs.energies.is_empty() && run.records.is_empty());
        let s = &run.stats;
        assert_eq!(
            [s.total_bicg_iterations, s.total_matvecs, s.operator_traversals, s.accepted],
            [0; 4]
        );

        let budget = RunOptions { max_new_energies: Some(1), ..RunOptions::default() };
        let RunOutcome::Interrupted(cp) =
            sweep.run_with(&[0.0, 0.1], &SerialExecutor, budget).unwrap()
        else {
            panic!("a budget of one energy interrupts a two-energy grid");
        };
        let resume = RunOptions { resume: Some(cp), ..RunOptions::default() };
        let refused = sweep.run_with(&[], &SerialExecutor, resume);
        assert!(matches!(refused, Err(CheckpointError::Mismatch(_))));
    }
}

//! # cbs-sweep
//!
//! Batched, adaptive orchestration of multi-energy complex band structure
//! scans — the production driver for the paper's headline workloads
//! (Figures 6 and 11), which are hundreds of independent Sakurai-Sugiura
//! QEP solves, one per scan energy.
//!
//! The per-energy loop in `cbs_core::compute_cbs` runs those solves one
//! energy after another; this crate runs them as the paper does, each
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
//! * **Checkpointing** — a [`SweepCheckpoint`] (format v15: finished
//!   energies' results, bit-exact floats, a checksum) is written after
//!   every extracted energy; a killed sweep resumes bit-identically
//!   ([`checkpoint`]).
//!
//! Entry points: [`EnergySweep`] (driver) and [`sweep_cbs`] (one-call
//! convenience).  Determinism — serial/rayon bit-identity, equivalence with
//! the per-energy solve, and resume bit-identity — is locked in by
//! `tests/sweep_determinism.rs` at the workspace root.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod sweep;

pub use checkpoint::{CheckpointError, SweepCheckpoint};
pub use config::SweepConfig;
pub use sweep::{
    sweep_cbs, AutoDecision, BandEdgeRefiner, EnergyOrigin, EnergyRecord, EnergyStats, EnergySweep,
    ProbeSample, RefinementPredicate, RunOptions, RunOutcome, SweepResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_core::{compute_cbs, SsConfig};
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::SerialExecutor;
    use cbs_sparse::DenseOp;
    use rand::SeedableRng;

    fn random_blocks(n: usize, seed: u64) -> (CMatrix, CMatrix) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = CMatrix::random(n, n, &mut rng);
        let h00 = (&a + &a.adjoint()).scale(c64(0.5, 0.0));
        let h01 = CMatrix::random(n, n, &mut rng).scale(c64(0.35, 0.0));
        (h00, h01)
    }

    fn small_ss() -> SsConfig {
        SsConfig {
            n_int: 16,
            n_mm: 4,
            n_rh: 6,
            bicg_tolerance: 1e-11,
            residual_cutoff: 1e-6,
            ..SsConfig::small()
        }
    }

    #[test]
    fn sweep_matches_per_energy_loop_bitwise() {
        let (h00, h01) = random_blocks(10, 1201);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let energies = [-0.25, -0.05, 0.1, 0.3];
        let config = SweepConfig::new(small_ss());
        let sweep = sweep_cbs(&op00, &op01, 1.4, &energies, &config, &SerialExecutor);
        let loop_run = compute_cbs(&op00, &op01, 1.4, &energies, &small_ss());
        assert_eq!(sweep.cbs.energies, loop_run.cbs.energies);
        assert_eq!(sweep.cbs.points.len(), loop_run.cbs.points.len());
        assert!(!sweep.cbs.points.is_empty());
        for (a, b) in sweep.cbs.points.iter().zip(&loop_run.cbs.points) {
            assert_eq!(a.energy_index, b.energy_index);
            assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
            assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
            assert_eq!(a.k_re.to_bits(), b.k_re.to_bits());
            assert_eq!(a.k_im.to_bits(), b.k_im.to_bits());
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        }
        assert_eq!(sweep.stats.total_bicg_iterations, loop_run.stats.total_bicg_iterations);
        assert_eq!(sweep.stats.total_matvecs, loop_run.stats.total_matvecs);
        assert_eq!(sweep.stats.refined_energies, 0);
        // The vestigial warm/cold split reads as `compute_cbs` fills it.
        let (s, l) = (&sweep.stats, &loop_run.stats);
        assert_eq!(
            [s.cold_bicg_iterations, s.cold_solves],
            [l.cold_bicg_iterations, l.cold_solves]
        );
        assert_eq!([s.cold_bicg_iterations, s.warm_bicg_iterations], [s.total_bicg_iterations, 0]);
        assert_eq!(s.warm_started_solves, 0);
    }
}

//! # cbs-sweep
//!
//! Batched, warm-started, adaptive orchestration of multi-energy complex
//! band structure scans — the production driver for the paper's headline
//! workloads (Figures 6 and 11), which are hundreds of independent
//! Sakurai-Sugiura QEP solves, one per scan energy.
//!
//! The per-energy loop in `cbs_core::compute_cbs` runs those solves cold
//! and serially across energies; this crate exploits the cross-energy
//! structure instead:
//!
//! * **Flattening** — a release round's solve grid becomes one task pool
//!   dispatched through the `cbs_parallel::TaskExecutor` seam — `(energy ×
//!   quadrature-node)` block jobs, each advancing all `N_rh` right-hand
//!   sides through fused block matvecs — so a sweep saturates a wide
//!   executor even when one energy's grid is small.  Each energy is one
//!   group of the shared `cbs_core::solve_pool`.
//! * **Warm starting** — each energy's dual-BiCG solves are seeded from
//!   the nearest already-completed energy's solutions (`P(z; E')` differs
//!   from `P(z; E)` only by `(E' − E) I`), via the seed table of
//!   `cbs_core::PoolGroup`; the dyadic wavefront schedule
//!   (`cbs_parallel::SweepSchedule`) keeps donors close while releasing
//!   geometrically growing rounds.  Cold-vs-warm iteration counts land in
//!   `cbs_core::CbsStatistics`.
//! * **Adaptive refinement** — intervals where the propagating-channel
//!   count changes (or a [`RefinementPredicate`] such as the
//!   band-edge-bracketing [`BandEdgeRefiner`] fires) are bisected up to a
//!   configurable budget, resolving band edges cheaply.
//! * **Checkpointing** — a [`SweepCheckpoint`] is written after every
//!   completed energy with bit-exact float encoding; a killed sweep
//!   resumes bit-identically ([`checkpoint`]).
//!
//! Entry points: [`EnergySweep`] (driver) and [`sweep_cbs`] (one-call
//! convenience).  Determinism — serial/rayon bit-identity, cold-sweep
//! equivalence with `compute_cbs`, and resume bit-identity — is locked in
//! by `tests/sweep_determinism.rs` at the workspace root.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod sweep;

pub use checkpoint::{CheckpointError, SweepCheckpoint};
pub use config::SweepConfig;
pub use sweep::{
    sweep_cbs, AutoDecision, BandEdgeRefiner, EnergyOrigin, EnergyRecord, EnergyStats, EnergySweep,
    ProbeSample, RefinementPredicate, RunOptions, RunOutcome, SeedTable, SweepResult,
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
    fn cold_sweep_matches_per_energy_loop_bitwise() {
        let (h00, h01) = random_blocks(10, 1201);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let energies = [-0.25, -0.05, 0.1, 0.3];
        let config = SweepConfig::cold(small_ss());
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
        assert_eq!(sweep.stats.warm_started_solves, 0);
        assert_eq!(sweep.stats.refined_energies, 0);
    }

    #[test]
    fn warm_sweep_records_donors_and_split_counters() {
        let (h00, h01) = random_blocks(10, 1202);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let energies: Vec<f64> = (0..10).map(|i| -0.2 + 0.05 * i as f64).collect();
        let config = SweepConfig { initial_round: 2, ..SweepConfig::new(small_ss()) };
        let run = sweep_cbs(&op00, &op01, 1.4, &energies, &config, &SerialExecutor);
        assert_eq!(run.records.len(), 10);
        let warm_records = run.records.iter().filter(|r| r.seeded_from.is_some()).count();
        assert!(warm_records >= 8, "only {warm_records} records were seeded");
        // Donors are completed energies distinct from the seeded one.
        for r in &run.records {
            if let Some(d) = r.seeded_from {
                assert!(d != r.energy);
                assert!(run.records.iter().any(|q| q.energy == d));
                assert_eq!(r.stats.cold_iterations, 0);
                assert_eq!(r.stats.warm_iterations, r.stats.bicg_iterations);
            }
        }
        assert_eq!(
            run.stats.warm_bicg_iterations + run.stats.cold_bicg_iterations,
            run.stats.total_bicg_iterations
        );
        assert!(run.stats.warm_started_solves > 0);
        assert!(run.stats.cold_solves > 0);
    }

    #[test]
    fn seed_bank_capacity_keeps_sweep_running() {
        let (h00, h01) = random_blocks(8, 1203);
        let op00 = DenseOp::new(h00);
        let op01 = DenseOp::new(h01);
        let energies: Vec<f64> = (0..8).map(|i| -0.1 + 0.04 * i as f64).collect();
        let config =
            SweepConfig { initial_round: 2, seed_bank_capacity: 2, ..SweepConfig::new(small_ss()) };
        let run = sweep_cbs(&op00, &op01, 1.2, &energies, &config, &SerialExecutor);
        assert_eq!(run.records.len(), 8);
        // With a tiny bank everything still completes and some solves warm.
        assert!(run.stats.warm_started_solves > 0);
    }
}

//! # cbs-sweep
//!
//! Batched orchestration of multi-energy complex band structure scans — the
//! production driver for the paper's headline workloads (Figures 6 and 11),
//! which are hundreds of independent Sakurai-Sugiura QEP solves, one per
//! scan energy.
//!
//! This crate is the one driver of those solves (one energy alone is
//! `cbs_core::solve_qep_with`).  It runs them as the paper does, each
//! energy solved independently and cold, but dispatched together:
//!
//! * **Flattening** — the grid is one pooled round of
//!   `cbs_core::solve_qeps_with`: one task pool dispatched through the
//!   `cbs_parallel::TaskExecutor` seam — `(energy × quadrature-node)` block
//!   jobs, each advancing all `N_rh` right-hand sides through fused block
//!   matvecs — so a sweep saturates a wide executor even when one energy's
//!   grid is small.  Each energy is bit-identical to its own
//!   `cbs_core::solve_qep_with`.
//! * **Checkpointing** — a [`SweepCheckpoint`] (format v23: finished
//!   energies' results, bit-exact floats, a checksum) is written after
//!   every extracted energy, in grid order, so a killed sweep leaves a
//!   prefix of the grid and resumes bit-identically ([`checkpoint`]).
//!
//! The sweep solves exactly the grid it is given.  A caller that wants a
//! finer grid where the channel count changes runs the sweep again on the
//! midpoints it picks (`examples/energy_sweep.rs`): an energy's result does
//! not depend on the run that solves it.
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
    AutoDecision, EnergyRecord, EnergyStats, EnergySweep, ProbeSample, RunOptions, SweepError,
    SweepResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_core::{
        solve_qep_with, ContourError, PrecondPolicy, QepProblem, SsConfig, PROPAGATING_TOLERANCE,
    };
    use cbs_linalg::{c64, CMatrix};
    use cbs_parallel::SerialExecutor;
    use cbs_sparse::{CooBuilder, DenseOp, LowRankOp, RealStencil};
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
        assert_eq!(s.warm_started_solves, 0);
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

        // A sweep of `[0.0, 0.1]` killed after its first energy: a kill
        // leaves a prefix of the finished checkpoint's records.
        let path = std::env::temp_dir().join(format!("cbs_sweep_empty_{}.cp", std::process::id()));
        let save = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
        sweep.run_with(&[0.0, 0.1], &SerialExecutor, save).unwrap();
        let mut cp = SweepCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        cp.records.truncate(1);
        let resume = RunOptions { resume: Some(cp), ..RunOptions::default() };
        let refused = sweep.run_with(&[], &SerialExecutor, resume);
        assert!(matches!(refused, Err(SweepError::Checkpoint(CheckpointError::Mismatch(_)))));
    }

    /// No source vectors (`N_rh` 0) or no moments (`N_mm` 0) leave nothing
    /// to extract: `solve_qep_with` and the sweep return the documented
    /// empty result — no eigenpairs, rank 0 — with the same counters, and
    /// no panic.
    #[test]
    fn no_source_vectors_or_no_moments_is_an_empty_result() {
        let (op00, op01) = random_blocks(8, 604, 0.35);
        let base = SsConfig { n_int: 8, n_mm: 2, n_rh: 2, ..SsConfig::small() };
        for ss in [SsConfig { n_rh: 0, ..base }, SsConfig { n_mm: 0, ..base }] {
            let qep = QepProblem::new(&op00, &op01, 0.1, 1.5);
            let alone = solve_qep_with(&qep, &ss, &SerialExecutor);
            assert!(alone.eigenpairs.is_empty() && alone.numerical_rank == 0, "{ss:?}");
            assert_eq!(alone.solve_histories.len(), 8 * ss.n_rh, "{ss:?}");
            let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(ss));
            let run = sweep.run(&[0.1], &SerialExecutor);
            assert!(run.cbs.points.is_empty(), "{ss:?}");
            let stats = EnergyStats {
                bicg_iterations: alone.total_bicg_iterations,
                matvecs: alone.total_matvecs,
                operator_traversals: alone.total_traversals,
                solves: alone.solve_histories.len(),
                unconverged: 0,
                accepted: 0,
                discarded: 0,
                numerical_rank: 0,
            };
            assert_eq!(run.records[0].stats, stats, "{ss:?}");
        }
    }

    /// A real chain pencil: the 8 listed nodes of the mirrored ring × 6
    /// columns are 48 solves per energy.  Capped at 3 iterations none
    /// converges, under either policy, and each record says so.  At the
    /// default cap all converge, under the ILU policy too at `E = 1.5`,
    /// where its D-ILU pivot `(E − 2.5) − 1/(E − 2.5)` is zero and every
    /// split solve falls back to `P(z)`.
    #[test]
    fn a_sweep_counts_its_unconverged_solves() {
        let n = 12;
        let (mut a, mut b) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
        for i in 0..n {
            a.push(i, i, c64(2.5, 0.0));
            if i + 1 < n {
                a.push(i, i + 1, c64(-1.0, 0.0));
                a.push(i + 1, i, c64(-1.0, 0.0));
            }
            b.push(i, (i + 7) % n, c64(0.4, 0.0));
        }
        let none = LowRankOp::new(n, n);
        let pencil = RealStencil::try_new((&a.build(), &none), (&b.build(), &none)).unwrap();
        let (h00, h01) = (pencil.h00(), pencil.h01());
        let (mf, ilu) = (PrecondPolicy::MatrixFree, PrecondPolicy::AssembledIlu0);
        for (precond, cap, unconverged) in [(mf, 3, 48), (ilu, 3, 48), (ilu, 20_000, 0)] {
            let ss = SsConfig {
                n_int: 16,
                n_mm: 4,
                n_rh: 6,
                bicg_tolerance: 1e-10,
                bicg_max_iterations: cap,
                precond,
                ..SsConfig::paper()
            };
            let run = EnergySweep::new(&h00, &h01, 1.0, SweepConfig::new(ss))
                .run(&[1.0, 1.5], &SerialExecutor);
            let counts: Vec<[usize; 2]> =
                run.records.iter().map(|r| [r.stats.solves, r.stats.unconverged]).collect();
            assert_eq!(counts, [[48, unconverged]; 2], "{precond:?}, cap {cap}");
            assert_eq!(run.stats.unconverged, 2 * unconverged);
        }
    }

    /// A NaN or infinite energy and an invalid contour are typed errors,
    /// not a panic or an empty band.
    #[test]
    fn malformed_inputs_are_typed_errors() {
        let (op00, op01) = random_blocks(8, 603, 0.35);
        let ss = SsConfig { n_int: 8, n_mm: 2, n_rh: 2, ..SsConfig::small() };
        let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(ss));
        let run = |energies: &[f64]| sweep.run_with(energies, &SerialExecutor, Default::default());
        assert!(matches!(run(&[0.1, f64::NAN]), Err(SweepError::NonFiniteEnergy(e)) if e.is_nan()));
        assert_eq!(run(&[f64::INFINITY]).err(), Some(SweepError::NonFiniteEnergy(f64::INFINITY)));

        let bad = SsConfig { lambda_min: 1.5, ..ss };
        let sweep = EnergySweep::new(&op00, &op01, 1.5, SweepConfig::new(bad));
        let refused = sweep.run_with(&[0.1], &SerialExecutor, RunOptions::default()).err();
        assert_eq!(
            refused,
            Some(SweepError::Contour(ContourError::InvalidLambdaMin { lambda_min: 1.5 }))
        );
    }
}

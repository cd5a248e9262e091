//! Knobs of the multi-energy sweep orchestrator.

use serde::{Deserialize, Serialize};

use cbs_core::SsConfig;
use cbs_parallel::SweepSchedule;

/// Configuration of a [`crate::EnergySweep`].
///
/// The per-energy eigensolver parameters live in [`ss`](Self::ss); the rest
/// controls *orchestration*: how the per-energy solve groups are released
/// into the flattened task pool, whether their BiCG solves are warm-started
/// from a neighbouring energy's solutions, how the energy grid is refined
/// adaptively, and how many donor solution sets are retained for seeding.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The Sakurai-Sugiura parameters applied at every scan energy.
    pub ss: SsConfig,
    /// Seed each energy's dual-BiCG solves from the nearest
    /// already-completed energy (dyadic wavefront scheduling).  When off,
    /// all energies run cold in a single maximally flattened round —
    /// bit-identical to the per-energy `compute_cbs` loop.
    pub warm_start: bool,
    /// Upper bound on the size of the first (cold) wavefront round; only
    /// meaningful with [`warm_start`](Self::warm_start).  `0` degenerates
    /// to the flat schedule.
    pub initial_round: usize,
    /// Budget of extra scan energies the adaptive refinement may insert
    /// (`0` disables refinement).
    pub max_refinements: usize,
    /// Minimum width (hartree) of an interval the refinement will bisect.
    pub min_refine_spacing: f64,
    /// Maximum number of completed energies whose solutions are retained
    /// as warm-start donors; the oldest completion is evicted first.  Each
    /// entry holds `2 · N_solved · N_rh` length-`N` vectors (`N_solved` =
    /// `N_int`, or `N_int / 2` on the mirrored ring of a real Hamiltonian),
    /// so this bounds the sweep's dominant memory cost.
    pub seed_bank_capacity: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::new(SsConfig::default())
    }
}

impl SweepConfig {
    /// Warm-started defaults around the given per-energy solver parameters.
    pub fn new(ss: SsConfig) -> Self {
        Self {
            ss,
            warm_start: true,
            initial_round: 8,
            max_refinements: 0,
            min_refine_spacing: 1e-6,
            seed_bank_capacity: 16,
        }
    }

    /// A cold sweep: one flat round, no seeding, no refinement.  Produces
    /// output bit-identical to the per-energy `compute_cbs` loop on the
    /// same (ascending) grid.
    pub fn cold(ss: SsConfig) -> Self {
        Self { warm_start: false, ..Self::new(ss) }
    }

    /// Enable adaptive refinement with the given extra-energy budget.
    pub fn with_refinement(mut self, budget: usize) -> Self {
        self.max_refinements = budget;
        self
    }

    /// The release schedule implied by this configuration.
    pub fn schedule(&self) -> SweepSchedule {
        if self.warm_start && self.initial_round > 0 {
            SweepSchedule::Wavefront { initial_round: self.initial_round }
        } else {
            SweepSchedule::Flat
        }
    }

    /// Bit-exact fingerprint of every physics-relevant knob, stored in
    /// checkpoints and verified on resume: resuming under a different
    /// configuration would silently change the results, so it is an error.
    pub fn fingerprint(&self, period: f64) -> Vec<u64> {
        vec![
            self.ss.n_int as u64,
            self.ss.n_mm as u64,
            self.ss.n_rh as u64,
            self.ss.delta.to_bits(),
            self.ss.lambda_min.to_bits(),
            self.ss.bicg_tolerance.to_bits(),
            self.ss.bicg_max_iterations as u64,
            self.ss.residual_cutoff.to_bits(),
            self.ss.seed,
            self.ss.majority_stop as u64,
            // The precond policy changes the floating-point trajectory
            // (assembled arithmetic, ILU-preconditioned recurrences), so a
            // resume across it would silently change results; the block
            // policy stays excluded because its results are bitwise
            // policy-invariant.
            self.ss.precond as u64,
            self.warm_start as u64,
            self.initial_round as u64,
            self.max_refinements as u64,
            self.min_refine_spacing.to_bits(),
            self.seed_bank_capacity as u64,
            period.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_follows_warm_start() {
        let cfg = SweepConfig::new(SsConfig::small());
        assert_eq!(cfg.schedule(), SweepSchedule::Wavefront { initial_round: 8 });
        assert_eq!(SweepConfig::cold(SsConfig::small()).schedule(), SweepSchedule::Flat);
        let zero = SweepConfig { initial_round: 0, ..cfg };
        assert_eq!(zero.schedule(), SweepSchedule::Flat);
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = SweepConfig::new(SsConfig::small());
        let mut b = a;
        assert_eq!(a.fingerprint(1.0), b.fingerprint(1.0));
        assert_ne!(a.fingerprint(1.0), a.fingerprint(2.0));
        b.ss.n_rh += 1;
        assert_ne!(a.fingerprint(1.0), b.fingerprint(1.0));
        let c = SweepConfig { warm_start: false, ..a };
        assert_ne!(a.fingerprint(1.0), c.fingerprint(1.0));
    }
}

//! Knobs of the multi-energy sweep orchestrator.

use cbs_core::SsConfig;

/// Configuration of a [`crate::EnergySweep`].
///
/// The per-energy eigensolver parameters live in [`ss`](Self::ss); the sweep
/// has no knob of its own ([`initial_round`](Self::initial_round) is
/// vestigial).
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// The Sakurai-Sugiura parameters applied at every scan energy.
    pub ss: SsConfig,
    /// **Vestigial:** read by nothing and not part of the
    /// [`fingerprint`](Self::fingerprint).  It survives only because the
    /// repo benchmark (`benchmark/src/workloads.rs`) writes it in a struct
    /// literal; released by ROADMAP 1(a).
    pub initial_round: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::new(SsConfig::default())
    }
}

impl SweepConfig {
    /// A sweep of the given per-energy solver parameters.
    pub fn new(ss: SsConfig) -> Self {
        Self { ss, initial_round: 0 }
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
            // The precond policy changes the floating-point trajectory (the
            // diagonal-ILU split), so a resume across it would silently
            // change results.  There is one job shape, so nothing else of
            // the solve's layout is fingerprinted.
            self.ss.precond as u64,
            period.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = SweepConfig::new(SsConfig::small());
        let mut b = a;
        assert_eq!(a.fingerprint(1.0), b.fingerprint(1.0));
        assert_ne!(a.fingerprint(1.0), a.fingerprint(2.0));
        b.ss.n_rh += 1;
        assert_ne!(a.fingerprint(1.0), b.fingerprint(1.0));
        // The vestigial release-round size changes nothing.
        let c = SweepConfig { initial_round: 4, ..a };
        assert_eq!(a.fingerprint(1.0), c.fingerprint(1.0));
    }
}

//! Convergence bookkeeping shared by all iterative solvers.

/// Why an iterative solve stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The relative residual dropped below the tolerance.
    Converged,
    /// The iteration budget was exhausted.
    MaxIterations,
    /// The recurrence broke down (division by a vanishing inner product).
    Breakdown,
    /// Never returned: no solve can be stopped from outside any more.  A
    /// vestige kept only because the repo benchmark's oracle matches it
    /// (released by ROADMAP 1(a)).
    ExternalStop,
}

/// Record of one linear solve: per-iteration relative residuals plus the
/// final state, always recorded.  These are exactly the curves plotted in
/// the paper's Figure 5.  A dual BiCG solve keeps one for its primal/dual
/// pair ([`BicgResult::history`](crate::BicgResult::history)).
#[derive(Clone, Debug)]
pub struct ConvergenceHistory {
    /// Relative residual 2-norm after each iteration (index 0 = initial);
    /// for a primal/dual pair, the larger of the two.
    pub residuals: Vec<f64>,
    /// Why the iteration stopped.
    pub stop_reason: StopReason,
    /// Number of operator applications performed (matrix-vector products).
    pub matvecs: usize,
}

impl ConvergenceHistory {
    /// Number of iterations actually performed.
    pub fn iterations(&self) -> usize {
        self.residuals.len().saturating_sub(1)
    }

    /// Final relative residual.
    pub fn final_residual(&self) -> f64 {
        self.residuals.last().copied().unwrap_or(f64::INFINITY)
    }

    /// `true` when the solve reached the requested tolerance.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }
}

/// Common knobs of the iterative solvers.
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Relative residual tolerance (the paper uses 1e-10).
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// **Vestigial:** read by nothing — every solve records its history,
    /// so `false` is ignored (the deprecation says so at the call site).
    /// It survives only because the repo benchmark
    /// (`benchmark/src/layers.rs`) names it in a struct literal; released
    /// by ROADMAP 1(a).
    #[deprecated(note = "ignored: every solve records its history")]
    pub record_history: bool,
}

impl Default for SolverOptions {
    #[allow(deprecated, reason = "the vestigial field still needs a value")]
    fn default() -> Self {
        Self { tolerance: 1e-10, max_iterations: 10_000, record_history: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_accessors() {
        let h = ConvergenceHistory {
            residuals: vec![1.0, 0.1, 1e-11],
            stop_reason: StopReason::Converged,
            matvecs: 4,
        };
        assert_eq!(h.iterations(), 2);
        assert!(h.converged());
        assert!((h.final_residual() - 1e-11).abs() < 1e-20);
    }
}

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
    /// An external controller requested an early stop through
    /// `bicg_dual_block_precond`'s `external_stop`.  Vestige, released by
    /// ROADMAP 1(a): no library solve passes a controller since the paper's
    /// majority-stop rule was deleted, and the repo benchmark's oracle still
    /// matches the variant.
    ExternalStop,
}

/// Record of one linear solve: per-iteration relative residuals plus the
/// final state.  These are exactly the curves plotted in the paper's
/// Figure 5.
#[derive(Clone, Debug)]
pub struct ConvergenceHistory {
    /// Relative residual 2-norm after each iteration (index 0 = initial).
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
    /// Record the residual history (cheap; on by default).
    pub record_history: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self { tolerance: 1e-10, max_iterations: 10_000, record_history: true }
    }
}

impl SolverOptions {
    /// The settings used throughout the paper's experiments.
    pub fn paper() -> Self {
        Self { tolerance: 1e-10, max_iterations: 100_000, record_history: true }
    }

    /// Override the tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Override the iteration budget.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
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

    #[test]
    fn options_builders() {
        let o = SolverOptions::paper().with_tolerance(1e-8).with_max_iterations(5);
        assert_eq!(o.max_iterations, 5);
        assert_eq!(o.tolerance, 1e-8);
        assert!(o.record_history);
    }
}

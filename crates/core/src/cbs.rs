//! The complex band structure: the Bloch factors of each scan energy's QEP
//! solve converted into complex wave numbers and classified.
//!
//! These are the types the paper's Figures 6 and 11 are drawn from: `k(E)`
//! curves with a real branch (propagating states, `|λ| = 1`) and imaginary
//! branches (evanescent states).  The multi-energy driver that fills them
//! is `cbs_sweep::EnergySweep`.

use cbs_linalg::Complex64;

use crate::qep::QepProblem;

/// Tolerance on `| |λ| - 1 |` below which a state is classified as
/// propagating (a real-k Bloch state).
pub const PROPAGATING_TOLERANCE: f64 = 1e-6;

/// One solution of the CBS at one energy.
#[derive(Clone, Copy, Debug)]
pub struct CbsPoint {
    /// Scan energy (hartree).
    pub energy: f64,
    /// Index of the scan energy in [`ComplexBandStructure::energies`].
    /// Grouping by index (rather than comparing `energy` for float
    /// equality) is what the per-energy helpers rely on.
    pub energy_index: usize,
    /// The Bloch factor `λ`.
    pub lambda: Complex64,
    /// Real part of the wave number `k` (1/bohr), folded into `(-π/a, π/a]`.
    pub k_re: f64,
    /// Imaginary part of the wave number (1/bohr), `-ln|λ| / a`: within
    /// about [`PROPAGATING_TOLERANCE`]` / a` of zero for propagating states,
    /// positive for states decaying in the `+z` direction.
    pub k_im: f64,
    /// `true` when `|λ| = 1` within [`PROPAGATING_TOLERANCE`].
    pub propagating: bool,
    /// QEP residual of the eigenpair.
    pub residual: f64,
}

/// Complex band structure over a set of scan energies.
#[derive(Clone, Debug, Default)]
pub struct ComplexBandStructure {
    /// All solutions found, grouped by nothing in particular; filter by
    /// energy or use the helper methods.
    pub points: Vec<CbsPoint>,
    /// The scan energies, ascending and deduplicated.
    pub energies: Vec<f64>,
}

impl ComplexBandStructure {
    /// Solutions at a particular energy (by index into `energies`).
    pub fn at_energy(&self, index: usize) -> impl Iterator<Item = &CbsPoint> {
        self.points.iter().filter(move |p| p.energy_index == index)
    }

    /// Only the propagating (real-k) states.
    pub fn propagating(&self) -> impl Iterator<Item = &CbsPoint> {
        self.points.iter().filter(|p| p.propagating)
    }

    /// Only the evanescent states.
    pub fn evanescent(&self) -> impl Iterator<Item = &CbsPoint> {
        self.points.iter().filter(|p| !p.propagating)
    }

    /// Number of propagating modes at each scan energy — the "number of
    /// conducting channels" curve used in transport analyses.  One pass over
    /// the points, grouped by `energy_index`.
    pub fn channel_counts(&self) -> Vec<(f64, usize)> {
        let mut counts = vec![0usize; self.energies.len()];
        for p in &self.points {
            if p.propagating {
                counts[p.energy_index] += 1;
            }
        }
        self.energies.iter().copied().zip(counts).collect()
    }
}

/// Aggregated work counters and wall-clock seconds of a CBS sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct CbsStatistics {
    /// Total BiCG iterations over the whole sweep.
    pub total_bicg_iterations: usize,
    /// Total operator applications (matvec-equivalents: the per-column
    /// work, however the applies were fused).
    pub total_matvecs: usize,
    /// Operator traversals performed, one per fused block apply — the
    /// figure the per-node block data path shrinks by up to `N_rh`x
    /// relative to [`total_matvecs`](Self::total_matvecs).
    pub operator_traversals: usize,
    /// **Vestigial:** always 0 — no solve refills an assembled pattern.  It
    /// survives only because the repo benchmark (`benchmark/src/layers.rs`)
    /// reads it; released by ROADMAP 1(a).
    pub operator_assemblies: usize,
    /// Equal to [`total_bicg_iterations`](Self::total_bicg_iterations):
    /// every solve starts cold.  Vestige, released by ROADMAP 1(a).
    pub cold_bicg_iterations: usize,
    /// Always 0.  Vestige, released by ROADMAP 1(a).
    pub warm_bicg_iterations: usize,
    /// Number of shifted solves (primal + dual pairs), all cold.  Vestige,
    /// released by ROADMAP 1(a).
    pub cold_solves: usize,
    /// Always 0.  Vestige, released by ROADMAP 1(a).
    pub warm_started_solves: usize,
    /// Seconds in linear solves.
    pub linear_solve_seconds: f64,
    /// Seconds in eigenpair extraction.
    pub extraction_seconds: f64,
    /// Shifted solves whose primal + dual pair did not converge, over the
    /// whole sweep.
    pub unconverged: usize,
    /// Total eigenpairs accepted.
    pub accepted: usize,
    /// Total candidates discarded by the residual filter.
    pub discarded: usize,
}

/// Fold a real wave number into the first Brillouin zone `(-π/a, π/a]`.
fn fold_k(k: f64, a: f64) -> f64 {
    let g = 2.0 * std::f64::consts::PI / a;
    let mut kk = k % g;
    if kk > g / 2.0 {
        kk -= g;
    }
    if kk <= -g / 2.0 {
        kk += g;
    }
    kk
}

/// Classify one accepted eigenvalue `λ` of `problem`, with its QEP
/// `residual`, as a [`CbsPoint`]: `k` from `λ`, its real part folded into
/// the first Brillouin zone, and propagating when `|λ| = 1` within
/// [`PROPAGATING_TOLERANCE`].  Everything but `λ` and the residual is
/// derived, so `cbs_sweep::EnergySweep` stores only those two and builds
/// every point with this function, resumed or not.
pub fn classify_point(
    problem: &QepProblem<'_>,
    energy_index: usize,
    lambda: Complex64,
    residual: f64,
) -> CbsPoint {
    let (k_re, k_im) = problem.lambda_to_k(lambda);
    CbsPoint {
        energy: problem.energy,
        energy_index,
        lambda,
        k_re: fold_k(k_re, problem.period),
        k_im,
        propagating: (lambda.abs() - 1.0).abs() < PROPAGATING_TOLERANCE,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_k_maps_into_first_zone() {
        let a = 2.0;
        // The reciprocal lattice vector and the zone edge.
        let g = 2.0 * std::f64::consts::PI / a;
        let edge = g / 2.0;
        assert!((fold_k(0.3, a) - 0.3).abs() < 1e-14);
        assert!((fold_k(g + 0.1, a) - 0.1).abs() < 1e-12);
        assert!((fold_k(-2.0 * g + 0.1, a) - 0.1).abs() < 1e-12);
        assert!(fold_k(1.7, a).abs() <= edge + 1e-12);
        assert!(fold_k(-1.7, a).abs() <= edge + 1e-12);
        // The zone is (-π/a, π/a]: its lower edge maps to the upper one,
        // which stays.
        assert_eq!(fold_k(-edge, a), edge);
        assert_eq!(fold_k(edge, a), edge);
    }
}

//! The ring-shaped integration contour of the Sakurai-Sugiura method.
//!
//! The physically relevant eigenvalues satisfy `λ_min < |λ| < 1/λ_min`
//! (paper Eq. 5): the propagating states on the unit circle plus the slowly
//! decaying evanescent states.  Following Miyata et al. (paper §3.2), the
//! contour is the boundary of that annulus — the outer circle of radius
//! `1/λ_min` traversed counter-clockwise minus the inner circle of radius
//! `λ_min`.  The trapezoidal rule on each circle gives the quadrature nodes
//!
//! ```text
//! z_j^(1) = λ_min^{-1} e^{iθ_j},   z_j^(2) = λ_min e^{iθ_j},
//! θ_j = 2π (j + 1/2)/N_int,        ω_j = z_j / N_int,
//! ```
//!
//! for the **0-based** node index `j = 0, …, N_int − 1 ` (the convention of
//! [`QuadraturePoint::index`] throughout this crate).  This is the same
//! node set as the paper's 1-based `θ_{j'} = 2π (j' − 1/2)/N_int` with
//! `j' = j + 1`: the half-step offset keeps every node off the real axis,
//! which is what makes the nodes conjugate-symmetric
//! (`z_{N−1−j} = conj(z_j)`, `ω_{N−1−j} = conj(ω_j)`).
//!
//! Two symmetries of this node set let the solver skip three quarters of
//! it.  The inner-circle nodes are exactly `1 / conj(z_j^(1))` and
//! `P(z)† = P(1/z̄)`, which is why the dual BiCG solutions can serve them —
//! always.  And for a real Hamiltonian `P(z̄) = conj P(z)`, so with a real
//! source block the solutions at the lower half-plane nodes are the
//! conjugates of those at their mirror images: the solver then lists only
//! the `Im z > 0` nodes (see the [`ss`](crate::ss) module docs) and never
//! solves the rest.  An odd `N` has one self-conjugate node at `θ = π`; it
//! stays in the list with half its weights, because the extraction's
//! `Ŝ_k ← Ŝ_k + conj Ŝ_k` counts every listed node twice.

use cbs_linalg::Complex64;

/// Why a contour could not be constructed.  Returned by
/// [`RingContour::try_new`], the one constructor, so invalid parameters
/// fail loudly at the boundary instead of producing NaN radii (`1/λ_min`
/// for `λ_min = 0`) or empty node sets (`n_int = 0`) downstream.
#[derive(Clone, Debug, PartialEq)]
pub enum ContourError {
    /// `λ_min` outside the open interval `(0, 1)` (or not finite): the
    /// annulus `λ_min < |λ| < 1/λ_min` would be empty or its radii NaN.
    InvalidLambdaMin {
        /// The rejected value.
        lambda_min: f64,
    },
    /// Fewer than two quadrature points per circle — `n_int = 0` would make
    /// every trapezoid weight `z/N` a division by zero.
    TooFewNodes {
        /// The rejected node count.
        n_int: usize,
    },
}

impl std::fmt::Display for ContourError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidLambdaMin { lambda_min } => {
                write!(f, "contour error: λ_min = {lambda_min} must lie in (0, 1)")
            }
            Self::TooFewNodes { n_int } => {
                write!(f, "contour error: n_int = {n_int} but at least 2 quadrature points per circle are required")
            }
        }
    }
}

impl std::error::Error for ContourError {}

/// One quadrature node of the ring contour.
#[derive(Clone, Copy, Debug)]
pub struct QuadraturePoint {
    /// 0-based index `j` along the circle (`θ_j = 2π (j + 1/2)/N_int`; the
    /// paper's 1-based `j'` is `j + 1`).
    pub index: usize,
    /// The node `z_j`.
    pub z: Complex64,
    /// The trapezoidal weight `ω_j = z_j / N_int` (sign included: negative
    /// for the inner circle, which is traversed with opposite orientation).
    pub weight: Complex64,
    /// `true` for the outer circle, `false` for the inner circle.
    pub outer: bool,
}

/// The two-circle (annulus) contour.
#[derive(Clone, Copy, Debug)]
pub struct RingContour {
    /// Inner radius `λ_min` (the paper uses 0.5).
    pub lambda_min: f64,
    /// Number of quadrature points per circle (`N_int`, the paper uses 32).
    pub n_int: usize,
}

impl RingContour {
    /// Create a contour, rejecting invalid parameters with a typed
    /// [`ContourError`] instead of letting them poison the quadrature
    /// downstream (`λ_min ≥ 1` or `λ_min ≤ 0` would yield an empty annulus
    /// or NaN/∞ radii, `n_int = 0` a division by zero in every weight).
    pub fn try_new(lambda_min: f64, n_int: usize) -> Result<Self, ContourError> {
        if !(lambda_min > 0.0 && lambda_min < 1.0 && lambda_min.is_finite()) {
            return Err(ContourError::InvalidLambdaMin { lambda_min });
        }
        if n_int < 2 {
            return Err(ContourError::TooFewNodes { n_int });
        }
        Ok(Self { lambda_min, n_int })
    }

    /// Outer radius `1/λ_min`.
    pub fn outer_radius(&self) -> f64 {
        1.0 / self.lambda_min
    }

    /// Inner radius `λ_min`.
    pub fn inner_radius(&self) -> f64 {
        self.lambda_min
    }

    /// `true` if `λ` lies strictly inside the annulus (with an optional
    /// relative margin to tolerate quadrature leakage at the boundary).
    pub fn contains(&self, lambda: Complex64, margin: f64) -> bool {
        let r = lambda.abs();
        r > self.inner_radius() * (1.0 + margin) && r < self.outer_radius() * (1.0 - margin)
    }

    /// Quadrature angle `θ_j = 2π (j + 1/2)/N_int` for the 0-based `j`.
    fn theta(&self, j: usize) -> f64 {
        2.0 * std::f64::consts::PI * (j as f64 + 0.5) / self.n_int as f64
    }

    /// Outer node `j` and the inner node `1/z̄` its dual solution serves,
    /// both weights scaled by `share` — the one place the ring's nodes are
    /// written.
    fn node(&self, j: usize, share: f64) -> (QuadraturePoint, QuadraturePoint) {
        let point = |z, weight, outer| QuadraturePoint { index: j, z, weight, outer };
        let n = self.n_int as f64;
        let z = Complex64::polar(self.outer_radius(), self.theta(j));
        let dual_z = Complex64::ONE / z.conj();
        (point(z, (z / n).scale(share), true), point(dual_z, -(dual_z / n).scale(share), false))
    }

    /// The `(outer, paired inner)` node pairs a solve lists.  Every node of
    /// the ring, or — `mirrored`, for a conjugate-symmetric problem — only
    /// the `Im z > 0` half, each pair also standing for its mirror image
    /// `(z̄, ω̄)`: the self-conjugate `θ = π` node of an odd `N` then enters
    /// with half weights, since the extraction counts every listed node
    /// twice.
    pub(crate) fn solved_nodes(&self, mirrored: bool) -> Vec<(QuadraturePoint, QuadraturePoint)> {
        let n_listed = if mirrored { self.n_int.div_ceil(2) } else { self.n_int };
        (0..n_listed)
            .map(|j| self.node(j, if mirrored && 2 * j + 1 == self.n_int { 0.5 } else { 1.0 }))
            .collect()
    }

    /// The outer-circle nodes (these are the only linear systems actually
    /// solved; the inner circle reuses their dual solutions).
    pub fn outer_points(&self) -> Vec<QuadraturePoint> {
        (0..self.n_int).map(|j| self.node(j, 1.0).0).collect()
    }

    /// The inner-circle nodes `1/z̄`, the duals of the outer nodes, with
    /// the orientation sign folded into the weight (the annulus integral
    /// subtracts the inner circle).
    pub fn inner_points(&self) -> Vec<QuadraturePoint> {
        (0..self.n_int).map(|j| self.node(j, 1.0).1).collect()
    }

    /// All `2 N_int` nodes (outer then inner).
    pub fn all_points(&self) -> Vec<QuadraturePoint> {
        let mut pts = self.outer_points();
        pts.extend(self.inner_points());
        pts
    }

    /// The inner node paired with outer node `j`: `z^(2)_j = 1 / conj(z^(1)_j)`.
    pub fn paired_inner(&self, outer: &QuadraturePoint) -> QuadraturePoint {
        debug_assert!(outer.outer);
        self.node(outer.index, 1.0).1
    }

    /// Numerically evaluate the filter function
    /// `f_k(λ) = (1/2πi) ∮ z^k/(z - λ) dz` with this quadrature.  For exact
    /// integration it is `λ^k` inside the annulus and `0` outside; this is
    /// the quantity the tests use to validate the nodes and weights.
    pub fn filter_value(&self, k: usize, lambda: Complex64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for p in self.all_points() {
            acc += p.weight * p.z.powi(k as i32) / (p.z - lambda);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::c64;

    #[test]
    fn radii_and_point_counts() {
        let c = RingContour::try_new(0.5, 32).unwrap();
        assert_eq!(c.outer_radius(), 2.0);
        assert_eq!(c.inner_radius(), 0.5);
        assert_eq!(c.outer_points().len(), 32);
        assert_eq!(c.inner_points().len(), 32);
        assert_eq!(c.all_points().len(), 64);
        for p in c.outer_points() {
            assert!((p.z.abs() - 2.0).abs() < 1e-14);
            assert!(p.outer);
        }
        for p in c.inner_points() {
            assert!((p.z.abs() - 0.5).abs() < 1e-14);
            assert!(!p.outer);
        }
    }

    #[test]
    fn inner_nodes_are_inverse_conjugates_of_outer_nodes() {
        let c = RingContour::try_new(0.5, 16).unwrap();
        let outer = c.outer_points();
        let inner = c.inner_points();
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        for (o, i) in outer.iter().zip(&inner) {
            assert_eq!(bits(i.z), bits(Complex64::ONE / o.z.conj()));
            let paired = c.paired_inner(o);
            assert_eq!(bits(paired.z), bits(i.z));
            assert_eq!(bits(paired.weight), bits(i.weight));
        }
    }

    #[test]
    fn membership_test() {
        let c = RingContour::try_new(0.5, 8).unwrap();
        assert!(c.contains(c64(1.0, 0.0), 0.0));
        assert!(c.contains(c64(0.0, -1.5), 0.0));
        assert!(!c.contains(c64(0.1, 0.0), 0.0));
        assert!(!c.contains(c64(3.0, 0.0), 0.0));
        // Margin shrinks the annulus.
        assert!(!c.contains(c64(1.95, 0.0), 0.05));
    }

    #[test]
    fn quadrature_reproduces_moments_of_poles_inside() {
        // f_k(λ) = λ^k for λ in the annulus, 0 outside (up to the exponential
        // accuracy of the trapezoid rule).
        let c = RingContour::try_new(0.5, 64).unwrap();
        for &lambda in &[c64(0.9, 0.3), c64(-1.2, 0.4), c64(0.0, 0.7)] {
            for k in 0..6usize {
                let got = c.filter_value(k, lambda);
                let want = lambda.powi(k as i32);
                assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want.abs()),
                    "inside: k={k}, λ={lambda:?}, got {got:?}, want {want:?}"
                );
            }
        }
        for &lambda in &[c64(0.2, 0.1), c64(2.6, 0.5), c64(0.05, 0.0)] {
            for k in 0..6usize {
                let got = c.filter_value(k, lambda);
                assert!(got.abs() < 1e-4, "outside: k={k}, λ={lambda:?}, got {got:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "λ_min = 1.5 must lie in (0, 1)")]
    fn invalid_lambda_min_rejected() {
        let _ = crate::SsConfig { lambda_min: 1.5, ..crate::SsConfig::small() }.contour();
    }

    /// Regression: the constructor must reject the parameter classes that
    /// used to sail through into NaN radii or zero-division weights — with
    /// a *typed* error naming the offending value.
    #[test]
    fn try_new_rejects_degenerate_parameters_with_typed_errors() {
        // λ_min ≥ 1 (annulus empty or inverted) and λ_min ≤ 0 (outer radius
        // ∞/NaN), plus the non-finite values.
        for bad in [1.0, 1.5, 0.0, -0.5, f64::NAN, f64::INFINITY] {
            match RingContour::try_new(bad, 8) {
                Err(ContourError::InvalidLambdaMin { lambda_min }) => {
                    assert!(lambda_min.is_nan() == bad.is_nan());
                    if !bad.is_nan() {
                        assert_eq!(lambda_min, bad);
                    }
                }
                other => panic!("λ_min = {bad} accepted or misclassified: {other:?}"),
            }
        }
        // n_int = 0 would divide by zero in every weight, n_int = 1 cannot
        // close a trapezoid.
        for bad in [0usize, 1] {
            match RingContour::try_new(0.5, bad) {
                Err(ContourError::TooFewNodes { n_int }) => assert_eq!(n_int, bad),
                other => panic!("n_int = {bad} accepted or misclassified: {other:?}"),
            }
        }
        // Errors render a useful message.
        let msg = RingContour::try_new(0.0, 8).unwrap_err().to_string();
        assert!(msg.contains("λ_min"), "{msg}");
        let msg = RingContour::try_new(0.5, 0).unwrap_err().to_string();
        assert!(msg.contains("n_int = 0"), "{msg}");
        // Valid parameters still construct, with finite radii.
        let c = RingContour::try_new(0.5, 2).unwrap();
        assert!(c.outer_radius().is_finite() && c.inner_radius() > 0.0);
    }

    #[test]
    fn nodes_and_weights_are_conjugate_symmetric() {
        // θ_j = 2π(j + 1/2)/N places the nodes symmetrically about the real
        // axis: z_{N-1-j} = conj(z_j), and since ω_j = z_j/N the weights
        // inherit the same symmetry.  This is what makes the moments of a
        // real-symmetric spectrum come out in conjugate pairs.
        for &n_int in &[8usize, 16, 32] {
            let c = RingContour::try_new(0.5, n_int).unwrap();
            for pts in [c.outer_points(), c.inner_points()] {
                for j in 0..n_int {
                    let mirror = &pts[n_int - 1 - j];
                    assert!((pts[j].z - mirror.z.conj()).abs() < 1e-13);
                    assert!((pts[j].weight - mirror.weight.conj()).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn weights_sum_to_zero_per_circle() {
        // Σ_j ω_j = Σ_j z_j/N = 0 on each circle (the nodes are the scaled
        // N-th roots of unity rotated by half a step): the quadrature
        // integrates the constant to zero, i.e. f_0 vanishes for a
        // pole-free integrand.
        let c = RingContour::try_new(0.5, 24).unwrap();
        for pts in [c.outer_points(), c.inner_points()] {
            let sum: Complex64 = pts.iter().map(|p| p.weight).fold(c64(0.0, 0.0), |a, w| a + w);
            assert!(sum.abs() < 1e-13, "weight sum {sum:?}");
        }
    }

    #[test]
    fn inner_circle_weights_carry_the_orientation_sign() {
        // The annulus integral subtracts the inner circle, so its weights
        // must be the negated trapezoid weights: ω'_j = -z'_j / N.
        let c = RingContour::try_new(0.4, 12).unwrap();
        for p in c.inner_points() {
            let expect = -(p.z / 12.0);
            assert!((p.weight - expect).abs() < 1e-15);
        }
        for p in c.outer_points() {
            let expect = p.z / 12.0;
            assert!((p.weight - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn single_slice_reproduces_the_ring_nodes_bitwise() {
        let contour = RingContour::try_new(0.5, 16).unwrap();
        let nodes = contour.solved_nodes(false);
        let outer = contour.outer_points();
        assert_eq!(nodes.len(), outer.len());
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        for (j, ((n, dual), o)) in nodes.iter().zip(&outer).enumerate() {
            // The textbook expressions, written out independently.
            let z = Complex64::polar(2.0, std::f64::consts::TAU * (j as f64 + 0.5) / 16.0);
            let dual_z = Complex64::ONE / z.conj();
            assert_eq!(bits(n.z), bits(z));
            assert_eq!(bits(n.weight), bits(z / 16.0));
            assert_eq!(bits(dual.z), bits(dual_z));
            assert_eq!(bits(dual.weight), bits(-(dual_z / 16.0)));
            let paired = contour.paired_inner(o);
            assert_eq!(bits(n.z), bits(o.z));
            assert_eq!(bits(n.weight), bits(o.weight));
            assert_eq!(bits(dual.z), bits(paired.z));
            assert_eq!(bits(dual.weight), bits(paired.weight));
        }
    }

    #[test]
    fn mirrored_ring_is_the_upper_half_of_the_full_ring_bitwise() {
        // The slice filter `(1/2πi) ∮ z^k/(z − λ) dz` over a node list; a
        // mirrored list also stands for the conjugates of its nodes.
        let filter = |nodes: &[(QuadraturePoint, QuadraturePoint)], mirrored: bool, k, lambda| {
            let term = |p: &QuadraturePoint| p.weight * p.z.powi(k) / (p.z - lambda);
            let conj = |p: &QuadraturePoint| QuadraturePoint {
                z: p.z.conj(),
                weight: p.weight.conj(),
                ..*p
            };
            let mut acc = Complex64::ZERO;
            for (o, i) in nodes {
                acc += term(o) + term(i);
                if mirrored {
                    acc += term(&conj(o)) + term(&conj(i));
                }
            }
            acc
        };
        for n_int in [2usize, 7, 8, 12, 13] {
            let contour = RingContour::try_new(0.5, n_int).unwrap();
            let full = contour.solved_nodes(false);
            let half = contour.solved_nodes(true);
            assert_eq!(half.len(), n_int.div_ceil(2));
            for (j, ((h, hd), (f, fd))) in half.iter().zip(&full).enumerate() {
                // Same shifts, bit for bit: the solved systems are exactly
                // the full ring's upper half-plane ones.
                assert_eq!(h.z.re.to_bits(), f.z.re.to_bits());
                assert_eq!(h.z.im.to_bits(), f.z.im.to_bits());
                assert_eq!(hd.z.re.to_bits(), fd.z.re.to_bits());
                assert_eq!(hd.z.im.to_bits(), fd.z.im.to_bits());
                // Same weights, except the self-conjugate θ = π node of an
                // odd ring (real up to the rounding of `sin π`), which the
                // closing sum would otherwise count twice.
                let self_conjugate = 2 * j + 1 == n_int;
                if self_conjugate {
                    assert!(h.z.im.abs() < 1e-15 * h.z.abs());
                } else {
                    assert!(h.z.im > 0.0, "n_int = {n_int}: node {j} is below the real axis");
                }
                let share = if self_conjugate { 0.5 } else { 1.0 };
                assert_eq!(h.weight, f.weight.scale(share));
                assert_eq!(hd.weight, fd.weight.scale(share));
                // The node it stands for is the full ring's mirror node.
                let (mirror, _) = &full[n_int - 1 - j];
                assert!((mirror.z - f.z.conj()).abs() < 1e-13);
                assert!((mirror.weight - f.weight.conj()).abs() < 1e-13);
            }
            // The two quadratures are the same filter.
            for lambda in [Complex64::polar(1.1, 0.7), Complex64::new(-0.8, 0.0)] {
                for k in 0..4 {
                    let (a, b) = (filter(&half, true, k, lambda), filter(&full, false, k, lambda));
                    assert!((a - b).abs() < 1e-13 * (1.0 + b.abs()), "n_int {n_int} k {k}");
                }
            }
        }
    }

    #[test]
    fn paired_inner_is_the_dual_shift_for_every_outer_node() {
        // z^(2) = 1/conj(z^(1)) is the identity that lets the dual BiCG
        // solution serve the inner circle; it must hold for every node and
        // every (valid) λ_min, with matching indices.
        for &lambda_min in &[0.3, 0.5, 0.8] {
            let c = RingContour::try_new(lambda_min, 16).unwrap();
            for o in c.outer_points() {
                let paired = c.paired_inner(&o);
                assert_eq!(paired.index, o.index);
                assert!(!paired.outer);
                assert!((paired.z - Complex64::ONE / o.z.conj()).abs() < 1e-14);
                assert!((paired.z.abs() - lambda_min).abs() < 1e-13);
            }
        }
    }
}

//! Central finite-difference stencils for the Laplacian on a uniform grid.
//!
//! The paper uses the real-space finite-difference scheme of Chelikowsky,
//! Troullier and Saad with a nine-point (N_f = 4) approximation of the
//! Laplacian in each direction.  The coefficients below are the standard
//! central-difference weights for the second derivative at orders
//! `2 N_f = 2, 4, 6, 8`.

/// Central finite-difference weights for d²/dx² with half-width `nf`.
///
/// Returns `2*nf + 1` coefficients `c_{-nf} ... c_{+nf}` to be divided by
/// `h²`; the approximation is accurate to order `2*nf`.
pub fn second_derivative_weights(nf: usize) -> Vec<f64> {
    match nf {
        1 => vec![1.0, -2.0, 1.0],
        2 => vec![-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0],
        3 => vec![
            1.0 / 90.0,
            -3.0 / 20.0,
            3.0 / 2.0,
            -49.0 / 18.0,
            3.0 / 2.0,
            -3.0 / 20.0,
            1.0 / 90.0,
        ],
        4 => vec![
            -1.0 / 560.0,
            8.0 / 315.0,
            -1.0 / 5.0,
            8.0 / 5.0,
            -205.0 / 72.0,
            8.0 / 5.0,
            -1.0 / 5.0,
            8.0 / 315.0,
            -1.0 / 560.0,
        ],
        _ => panic!("finite-difference half-width {nf} not supported (1..=4)"),
    }
}

/// One-dimensional Laplacian stencil: the second-derivative weights divided
/// by `h²`, returned as `(offset, weight)` pairs with `offset ∈ [-nf, nf]`.
pub fn laplacian_stencil_1d(nf: usize, h: f64) -> Vec<(isize, f64)> {
    let w = second_derivative_weights(nf);
    let inv_h2 = 1.0 / (h * h);
    w.iter().enumerate().map(|(i, &c)| (i as isize - nf as isize, c * inv_h2)).collect()
}

/// The kinetic-energy prefactor in Hartree atomic units: `T = -½ ∇²`, so the
/// stencil weights are multiplied by `-0.5`.
pub const KINETIC_PREFACTOR: f64 = -0.5;

/// Description of the finite-difference order used by a Hamiltonian.
///
/// **Size limit.**  A Hamiltonian is stored as a real stencil of shared row
/// templates: per grid row a `u32` template id and its diagonal value, per
/// distinct grid neighbourhood one template of up to `6·N_f` off-diagonal
/// entries (three axes of `2·N_f + 1` legs sharing the diagonal).  Rows,
/// columns and column offsets are `u32`, so a grid of `N` points needs
/// `N ≤ u32::MAX = 4 294 967 295`, at any `N_f`.  The templates stay tiny:
/// per axis at most `2·N_f + 1` neighbourhoods, so at most 2·9³ templates
/// per block at the paper's `N_f = 4`, whatever the grid size.
/// `cbs_dft::BlockHamiltonian::build` refuses a larger grid with a message
/// naming this limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FdOrder {
    /// Half width `N_f` of the stencil (the paper uses 4, i.e. nine points).
    pub nf: usize,
}

impl FdOrder {
    /// The paper's nine-point stencil.
    pub const PAPER: FdOrder = FdOrder { nf: 4 };

    /// The widest supported half width.
    pub const MAX_NF: usize = 4;

    /// Construct, validating the supported range.
    pub fn new(nf: usize) -> Self {
        assert!((1..=Self::MAX_NF).contains(&nf), "N_f must be in 1..=4");
        Self { nf }
    }

    /// Number of points in the 1-D stencil.
    pub fn points(&self) -> usize {
        2 * self.nf + 1
    }
}

impl Default for FdOrder {
    fn default() -> Self {
        FdOrder::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each stencil must annihilate constants (weights sum to zero) and
    /// reproduce the second derivative of x² exactly (Σ c_j j² = 2).
    #[test]
    fn weights_satisfy_moment_conditions() {
        for nf in 1..=4usize {
            let w = second_derivative_weights(nf);
            assert_eq!(w.len(), 2 * nf + 1);
            let sum: f64 = w.iter().sum();
            assert!(sum.abs() < 1e-12, "nf={nf}: weights sum {sum}");
            let mut second_moment = 0.0;
            let mut first_moment = 0.0;
            for (i, &c) in w.iter().enumerate() {
                let j = i as f64 - nf as f64;
                first_moment += c * j;
                second_moment += c * j * j;
            }
            assert!(first_moment.abs() < 1e-12, "nf={nf}: odd moment {first_moment}");
            assert!((second_moment - 2.0).abs() < 1e-12, "nf={nf}: second moment {second_moment}");
        }
    }

    /// Convergence order check on sin(x): the error of the nf-point stencil
    /// must drop by ~2^(2 nf) when the spacing is halved.
    #[test]
    fn convergence_order_on_sine() {
        for nf in 1..=4usize {
            let exact = -(0.7f64).sin();
            let err = |h: f64| {
                let s = laplacian_stencil_1d(nf, h);
                let val: f64 = s.iter().map(|&(o, w)| w * (0.7 + o as f64 * h).sin()).sum();
                (val - exact).abs()
            };
            // Spacings chosen large enough that truncation error dominates
            // round-off even for the eighth-order stencil.
            let e1 = err(0.3);
            let e2 = err(0.15);
            let order = (e1 / e2).log2();
            assert!(
                order > 2.0 * nf as f64 - 0.7,
                "nf={nf}: observed order {order}, expected ≈ {}",
                2 * nf
            );
        }
    }

    #[test]
    fn stencil_offsets_are_symmetric() {
        let s = laplacian_stencil_1d(4, 0.5);
        assert_eq!(s.len(), 9);
        for k in 0..s.len() {
            let (o1, w1) = s[k];
            let (o2, w2) = s[s.len() - 1 - k];
            assert_eq!(o1, -o2);
            assert!((w1 - w2).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn unsupported_order_panics() {
        let _ = second_derivative_weights(5);
    }

    #[test]
    fn fd_order_helpers() {
        assert_eq!(FdOrder::PAPER.points(), 9);
        assert_eq!(FdOrder::default(), FdOrder::PAPER);
        assert_eq!(FdOrder::new(2).points(), 5);
    }
}

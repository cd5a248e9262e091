//! Conventional (real-k) band structures and Fermi-level estimation.
//!
//! These are the red reference curves of the paper's Figure 6: for a real
//! wave number `k` the Bloch Hamiltonian `H(k) = H₀₀ + e^{ika} H₀₁ +
//! e^{-ika} H₀₁†` is Hermitian and its eigenvalues `E_n(k)` form the
//! ordinary band structure.  The complex-band-structure solver must
//! reproduce these bands wherever `|λ| = 1`.
//!
//! The dense diagonalization used here is only intended for the moderate
//! grids of the serial tests; the large-system experiments never need it.

use cbs_linalg::eigenvalues;

use crate::hamiltonian::BlockHamiltonian;

/// A sampled band structure: energies (hartree) for each k-point.
#[derive(Clone, Debug)]
pub struct BandStructure {
    /// The sampled wave numbers (1/bohr), each in `[0, π/a]`.
    pub kpoints: Vec<f64>,
    /// For each k-point, the sorted band energies (lowest `n_bands`).
    pub bands: Vec<Vec<f64>>,
}

impl BandStructure {
    /// Smallest sampled energy.
    pub fn min_energy(&self) -> f64 {
        self.bands.iter().flatten().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sampled energy.
    pub fn max_energy(&self) -> f64 {
        self.bands.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Distance from `energy` to the nearest band value at the k-point
    /// closest to `|k|` — used to verify the real-k solutions of the CBS.
    /// `k` is folded to `|k|` because the sampled Hamiltonians are real, so
    /// `E(−k) = E(k)`.
    ///
    /// A non-finite `k` has no closest k-point, and an empty band list (no
    /// k-points, or no bands at the matched k-point) no nearest band: the
    /// distance is then `f64::INFINITY`.
    pub fn distance_to_bands(&self, k: f64, energy: f64) -> f64 {
        if !k.is_finite() {
            return f64::INFINITY;
        }
        let k = k.abs();
        let Some((idx, _)) = self
            .kpoints
            .iter()
            .enumerate()
            .map(|(i, &kk)| (i, (kk - k).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return f64::INFINITY;
        };
        self.bands[idx].iter().map(|&e| (e - energy).abs()).fold(f64::INFINITY, f64::min)
    }
}

/// Compute the lowest `n_bands` bands on `nk` uniformly spaced k-points in
/// `[0, π/a]` by dense diagonalization of the Bloch Hamiltonian.
pub fn band_structure(h: &BlockHamiltonian, nk: usize, n_bands: usize) -> BandStructure {
    assert!(nk >= 2, "need at least two k-points");
    let a = h.period();
    let kmax = std::f64::consts::PI / a;
    let kpoints: Vec<f64> = (0..nk).map(|i| kmax * i as f64 / (nk - 1) as f64).collect();
    let bands = kpoints
        .iter()
        .map(|&k| {
            let hk = h.bloch_hamiltonian_dense(k);
            let mut evals: Vec<f64> = eigenvalues(&hk)
                .expect("Bloch Hamiltonian diagonalization failed")
                .into_iter()
                .map(|z| z.re)
                .collect();
            evals.sort_by(f64::total_cmp);
            evals.truncate(n_bands.min(evals.len()));
            evals
        })
        .collect();
    BandStructure { kpoints, bands }
}

/// Estimate the Fermi energy by filling the lowest states with the valence
/// electrons of the structure (two electrons per Bloch state, k-averaged).
///
/// `n_electrons` is the number of valence electrons per unit cell; the
/// returned value is the energy of the highest occupied state averaged with
/// the lowest unoccupied one (mid-gap for insulators, band energy for
/// metals).
pub fn fermi_energy(h: &BlockHamiltonian, n_electrons: f64, nk: usize) -> f64 {
    let n_occupied_per_k = (n_electrons / 2.0).ceil() as usize;
    let bs = band_structure(h, nk.max(2), n_occupied_per_k + 2);
    // Collect the n_occ-th and (n_occ+1)-th levels over k and take the
    // overall HOMO / LUMO.
    let mut homo = f64::NEG_INFINITY;
    let mut lumo = f64::INFINITY;
    for bands in &bs.bands {
        if n_occupied_per_k >= 1 && bands.len() >= n_occupied_per_k {
            homo = homo.max(bands[n_occupied_per_k - 1]);
        }
        if bands.len() > n_occupied_per_k {
            lumo = lumo.min(bands[n_occupied_per_k]);
        }
    }
    if homo.is_finite() && lumo.is_finite() {
        0.5 * (homo + lumo)
    } else if homo.is_finite() {
        homo
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::{Atom, AtomicStructure, Element};
    use crate::hamiltonian::{BlockHamiltonian, HamiltonianParams};
    use cbs_grid::{FdOrder, Grid3};

    fn small_hamiltonian() -> BlockHamiltonian {
        // The period exceeds two projector cutoffs (2 x 2.2 bohr), so the
        // atom's sphere reaches one neighbouring cell (the previous), never
        // both — the nearest-neighbour form `build` insists on.
        let s = AtomicStructure {
            name: "chain".into(),
            atoms: vec![Atom::new(Element::C, [1.2, 1.2, 1.2])],
            lateral: (2.4, 2.4),
            period: 4.8,
        };
        let grid = Grid3::isotropic(4, 4, 8, 0.6);
        BlockHamiltonian::build(
            grid,
            &s,
            HamiltonianParams { fd: FdOrder::new(2), include_nonlocal: true },
        )
    }

    #[test]
    fn bands_are_sorted_and_bounded() {
        let h = small_hamiltonian();
        let bs = band_structure(&h, 5, 6);
        assert_eq!(bs.kpoints.len(), 5);
        for bands in &bs.bands {
            assert_eq!(bands.len(), 6);
            for w in bands.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
        assert!(bs.min_energy() < bs.max_energy());
        // With the (repulsive) non-local projectors switched off, the single
        // attractive atom per cell must produce at least one bound band below
        // the free-electron bottom (0).
        let s = AtomicStructure {
            name: "chain".into(),
            atoms: vec![Atom::new(Element::C, [1.2, 1.2, 1.2])],
            lateral: (2.4, 2.4),
            period: 2.4,
        };
        let grid = Grid3::isotropic(4, 4, 4, 0.6);
        let h_local = BlockHamiltonian::build(
            grid,
            &s,
            HamiltonianParams { fd: FdOrder::new(2), include_nonlocal: false },
        );
        let bs_local = band_structure(&h_local, 3, 4);
        assert!(bs_local.min_energy() < 0.0, "lowest band {}", bs_local.min_energy());
    }

    #[test]
    fn bands_are_periodic_in_k_direction_symmetry() {
        // E(k) = E(-k) because the Hamiltonian blocks satisfy H10 = H01†.
        let h = small_hamiltonian();
        let a = h.period();
        for &k in &[0.2, 0.7] {
            let hp = h.bloch_hamiltonian_dense(k / a);
            let hm = h.bloch_hamiltonian_dense(-k / a);
            let mut ep: Vec<f64> = eigenvalues(&hp).unwrap().into_iter().map(|z| z.re).collect();
            let mut em: Vec<f64> = eigenvalues(&hm).unwrap().into_iter().map(|z| z.re).collect();
            ep.sort_by(|x, y| x.partial_cmp(y).unwrap());
            em.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for (a, b) in ep.iter().zip(&em) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn fermi_energy_lies_within_band_range() {
        let h = small_hamiltonian();
        let ef = fermi_energy(&h, 4.0, 3);
        let bs = band_structure(&h, 3, 8);
        assert!(ef >= bs.min_energy() && ef <= bs.max_energy(), "EF = {ef}");
    }

    #[test]
    fn distance_to_bands_of_empty_structure_is_infinite() {
        // Regression: an empty band list used to panic in the k-point
        // `expect`; it must report "infinitely far from any band" instead.
        let empty = BandStructure { kpoints: Vec::new(), bands: Vec::new() };
        assert_eq!(empty.distance_to_bands(0.3, 0.1), f64::INFINITY);
        // A k-point with no band values is equally bandless.
        let hollow = BandStructure { kpoints: vec![0.0], bands: vec![Vec::new()] };
        assert_eq!(hollow.distance_to_bands(0.0, 0.1), f64::INFINITY);
    }

    #[test]
    fn distance_to_bands_of_a_non_finite_k_is_infinite() {
        // Regression: a NaN `k` used to panic in the k-point search, and an
        // infinite one matched the first k-point.
        let bs = BandStructure { kpoints: vec![0.0, 0.5], bands: vec![vec![0.1], vec![0.3]] };
        for k in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(bs.distance_to_bands(k, 0.1), f64::INFINITY, "k = {k}");
        }
    }

    #[test]
    fn distance_to_bands_is_zero_on_a_band() {
        let h = small_hamiltonian();
        let bs = band_structure(&h, 4, 5);
        let k = bs.kpoints[2];
        let e = bs.bands[2][1];
        assert!(bs.distance_to_bands(k, e) < 1e-14);
        assert!(bs.distance_to_bands(k, e + 0.3) > 0.1);
    }

    #[test]
    fn distance_to_bands_is_even_in_k() {
        // The bands are sampled on `k ≥ 0`; a negative `k` is matched by
        // `|k|`, not by the nearest sample `k = 0`.
        let bs = BandStructure {
            kpoints: vec![0.0, 0.5, 1.0],
            bands: vec![vec![-1.0, 0.4], vec![-0.6, 0.9], vec![-0.2, 0.7]],
        };
        for (k, e) in [(0.5, -0.6), (0.5, 0.9), (0.9, 0.65), (0.2, -0.9)] {
            assert_eq!(bs.distance_to_bands(-k, e), bs.distance_to_bands(k, e), "k = {k}");
        }
        assert_eq!(bs.distance_to_bands(-0.5, -0.6), 0.0, "on band 0 at k = 0.5");
    }
}

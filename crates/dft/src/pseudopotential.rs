//! Evaluation of the empirical pseudopotential on the real-space grid:
//! the Gaussian local potential and the separable Kleinman-Bylander
//! projectors (s and p channels).
//!
//! All functions are short-ranged by construction, so a
//! single shell of periodic images along the transport direction and the
//! lateral minimum-image convention are sufficient.

use cbs_grid::Grid3;
use cbs_linalg::Complex64;
use cbs_sparse::SparseVec;

use crate::atoms::{Atom, KbChannel};

/// Local pseudopotential of one atom at distance `r` (bohr): an attractive
/// Gaussian well with a repulsive Gaussian core correction,
/// `v(r) = D exp(-(r/w)²) + C exp(-(r/wc)²)` with `D < 0 < C`.
pub fn local_potential(atom: &Atom, r: f64) -> f64 {
    let p = atom.element.pseudo();
    p.local_depth * (-(r / p.local_width).powi(2)).exp()
        + p.core_height * (-(r / p.core_width).powi(2)).exp()
}

/// Radius beyond which the local potential of any supported element is below
/// 10⁻¹⁰ hartree and can be neglected.
pub fn local_cutoff(atom: &Atom) -> f64 {
    let p = atom.element.pseudo();
    // exp(-(r/w)^2) < 1e-10  =>  r > w * sqrt(10 ln 10)
    let decades = (10.0_f64 * std::f64::consts::LN_10).sqrt();
    p.local_width.max(p.core_width) * decades
}

/// Value of a Kleinman-Bylander projector of channel `ch` at displacement
/// `d = r_grid - r_atom` (bohr).
///
/// * s channel (`l = 0`): `N exp(-r²/(2w²))`
/// * p channels (`l = 1`, `m = 0, ±1` represented by the Cartesian x/y/z
///   forms): `N (d_α / w) exp(-r²/(2w²))`
///
/// The normalization `N` is fixed so that the projector has unit L² norm in
/// the continuum; on the grid the discrete norm differs slightly, which only
/// rescales the empirical KB energies.
pub fn projector_value(ch: &KbChannel, m: usize, d: [f64; 3]) -> f64 {
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    let w = ch.width;
    let gauss = (-r2 / (2.0 * w * w)).exp();
    match ch.l {
        0 => {
            // (pi^(3/4) w^(3/2))^-1 normalizes the 3-D Gaussian.
            let n = 1.0 / (std::f64::consts::PI.powf(0.75) * w.powf(1.5));
            n * gauss
        }
        1 => {
            let n = (2.0_f64).sqrt() / (std::f64::consts::PI.powf(0.75) * w.powf(2.5));
            n * d[m] * gauss
        }
        l => panic!("unsupported angular momentum l={l}"),
    }
}

/// Number of projectors contributed by one channel (1 for s, 3 for p).
pub fn channel_multiplicity(ch: &KbChannel) -> usize {
    match ch.l {
        0 => 1,
        1 => 3,
        _ => panic!("unsupported angular momentum"),
    }
}

/// Evaluate one projector of `atom` (shifted along z by `z_shift` cells) on
/// all grid points within its cutoff, returning a sparse vector over the
/// home-cell grid.  Lateral periodicity is handled with the minimum-image
/// convention.  Returns an empty vector when the shifted atom is out of
/// range of the home cell entirely.
pub fn projector_on_grid(
    grid: &Grid3,
    atom: &Atom,
    ch: &KbChannel,
    m: usize,
    z_shift: f64,
) -> SparseVec {
    let p = atom.element.pseudo();
    let cutoff = p.projector_cutoff;
    let center = [atom.position[0], atom.position[1], atom.position[2] + z_shift];
    // Quick reject: if the z range of the sphere misses the cell entirely.
    if center[2] + cutoff < 0.0 || center[2] - cutoff > grid.lz() {
        return SparseVec::empty();
    }
    let mut entries = Vec::new();
    let k_lo = (((center[2] - cutoff) / grid.hz).floor().max(0.0)) as usize;
    let k_hi = ((((center[2] + cutoff) / grid.hz).ceil()) as usize).min(grid.nz.saturating_sub(1));
    for k in k_lo..=k_hi {
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                let pos = grid.position(i, j, k);
                let mut d = grid.min_image_xy(center, pos);
                // z is open within the cell: no wrapping.
                d[2] = pos[2] - center[2];
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                if r <= cutoff {
                    // The factor sqrt(dv) makes the discrete bra-ket
                    // ⟨p|ψ⟩ = Σ_j p̃_j* ψ_j approximate the volume-weighted
                    // integral ∫ p*(r) ψ(r) d³r, so the Kleinman-Bylander
                    // energies are grid-spacing independent.
                    let v = projector_value(ch, m, d) * grid.dv().sqrt();
                    if v != 0.0 {
                        entries.push((grid.index(i, j, k), Complex64::real(v)));
                    }
                }
            }
        }
    }
    SparseVec::new(entries)
}

/// Total local potential of a set of atoms evaluated at every grid point,
/// including the periodic images in the previous/next cell along z and the
/// lateral minimum images.
pub fn local_potential_on_grid(grid: &Grid3, atoms: &[Atom]) -> Vec<f64> {
    let mut v = vec![0.0f64; grid.npoints()];
    let lz = grid.lz();
    for atom in atoms {
        let cutoff = local_cutoff(atom);
        // Include every periodic image along z whose cutoff sphere can touch
        // the home cell (the local tail may be longer-ranged than one period).
        let shells = (cutoff / lz).ceil() as i64 + 1;
        for shell in -shells..=shells {
            let z_shift = shell as f64 * lz;
            let center = [atom.position[0], atom.position[1], atom.position[2] + z_shift];
            if center[2] + cutoff < 0.0 || center[2] - cutoff > lz {
                continue;
            }
            let k_lo = (((center[2] - cutoff) / grid.hz).floor().max(0.0)) as usize;
            let k_hi =
                ((((center[2] + cutoff) / grid.hz).ceil()) as usize).min(grid.nz.saturating_sub(1));
            for k in k_lo..=k_hi {
                for j in 0..grid.ny {
                    for i in 0..grid.nx {
                        let pos = grid.position(i, j, k);
                        let mut d = grid.min_image_xy(center, pos);
                        d[2] = pos[2] - center[2];
                        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                        if r <= cutoff {
                            v[grid.index(i, j, k)] += local_potential(atom, r);
                        }
                    }
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Element;

    #[test]
    fn local_potential_is_attractive_at_origin_and_decays() {
        let a = Atom::new(Element::C, [0.0, 0.0, 0.0]);
        assert!(local_potential(&a, 0.0) < 0.0 + Element::C.pseudo().core_height.abs());
        assert!(local_potential(&a, 1.5) < 0.0);
        let far = local_potential(&a, local_cutoff(&a));
        assert!(far.abs() < 1e-9);
    }

    #[test]
    fn projector_values_have_expected_symmetry() {
        let ch_s = KbChannel { l: 0, energy: 1.0, width: 0.9 };
        let ch_p = KbChannel { l: 1, energy: 0.5, width: 1.0 };
        // s projector is even under inversion.
        let d = [0.3, -0.2, 0.4];
        let dm = [-0.3, 0.2, -0.4];
        assert!((projector_value(&ch_s, 0, d) - projector_value(&ch_s, 0, dm)).abs() < 1e-14);
        // p projector is odd.
        for m in 0..3 {
            assert!((projector_value(&ch_p, m, d) + projector_value(&ch_p, m, dm)).abs() < 1e-14);
        }
        // p_x vanishes on the x = 0 plane.
        assert_eq!(projector_value(&ch_p, 0, [0.0, 0.5, 0.7]), 0.0);
        assert_eq!(channel_multiplicity(&ch_s), 1);
        assert_eq!(channel_multiplicity(&ch_p), 3);
    }

    #[test]
    fn projector_on_grid_is_localized() {
        let grid = Grid3::isotropic(12, 12, 12, 0.6);
        let atom = Atom::new(Element::C, [3.6, 3.6, 3.6]);
        let ch = Element::C.pseudo().channels[0];
        let p = projector_on_grid(&grid, &atom, &ch, 0, 0.0);
        assert!(p.nnz() > 0);
        assert!(p.nnz() < grid.npoints(), "projector must not cover the whole grid");
        // All support within the cutoff sphere.
        let cutoff = Element::C.pseudo().projector_cutoff;
        for (idx, _) in p.iter() {
            let (i, j, k) = grid.coords(idx);
            let pos = grid.position(i, j, k);
            let d = grid.min_image_xy(atom.position, pos);
            let dz = pos[2] - atom.position[2];
            let r = (d[0] * d[0] + d[1] * d[1] + dz * dz).sqrt();
            assert!(r <= cutoff + 1e-12);
        }
    }

    #[test]
    fn shifted_projector_out_of_range_is_empty() {
        let grid = Grid3::isotropic(10, 10, 10, 0.5);
        let atom = Atom::new(Element::C, [2.5, 2.5, 2.5]);
        let ch = Element::C.pseudo().channels[0];
        // Shift by +2 cells: far outside.
        let p = projector_on_grid(&grid, &atom, &ch, 0, 2.0 * grid.lz());
        assert!(p.is_empty());
    }

    #[test]
    fn projector_spills_into_neighbor_cell_window() {
        let grid = Grid3::isotropic(10, 10, 8, 0.5); // lz = 4.0
        let ch = Element::C.pseudo().channels[0];
        // Atom near the top of the cell: its next-cell image (shift -lz from
        // that image's frame == evaluating the atom shifted by -lz) has
        // support near the bottom of the window.
        let atom = Atom::new(Element::C, [2.5, 2.5, 3.7]);
        let spill = projector_on_grid(&grid, &atom, &ch, 0, -grid.lz());
        assert!(!spill.is_empty(), "projector of the shifted image should reach the window");
        // And all its support must be near z = 0.
        for (idx, _) in spill.iter() {
            let (_, _, k) = grid.coords(idx);
            assert!(
                (k as f64) * grid.hz
                    <= Element::C.pseudo().projector_cutoff - (grid.lz() - 3.7) + 1e-9
            );
        }
    }

    #[test]
    fn local_potential_grid_includes_periodic_images() {
        // lz = 4.  Atom at the very bottom: points near the top must feel
        // its image through the periodic wrap.
        let grid = Grid3::isotropic(8, 8, 8, 0.5);
        let atoms = [Atom::new(Element::C, [2.0, 2.0, 0.1])];
        let v = local_potential_on_grid(&grid, &atoms);
        let near = v[grid.index(4, 4, 0)];
        let top = v[grid.index(4, 4, 7)]; // z = 3.5, distance to image at 4.1 is 0.6
        assert!(near < -0.5, "potential near the atom should be deep, got {near}");
        assert!(top < -0.1, "potential near the periodic image should be felt, got {top}");
    }

    #[test]
    fn local_potential_lateral_minimum_image() {
        let grid = Grid3::isotropic(8, 8, 8, 0.5); // lx = 4
        let atoms = [Atom::new(Element::C, [0.0, 2.0, 2.0])];
        let v = local_potential_on_grid(&grid, &atoms);
        // The points at x = 0.5 and x = 3.5 are both 0.5 bohr away from the
        // atom (the latter through the periodic boundary) and must feel the
        // same potential.
        let wrapped = v[grid.index(7, 4, 4)];
        let direct = v[grid.index(1, 4, 4)];
        assert!((wrapped - direct).abs() < 1e-10 * direct.abs());
        assert!(wrapped < -0.5);
    }
}

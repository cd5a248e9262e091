//! Chemical elements, empirical pseudopotential parameters and atomic
//! structures.
//!
//! The paper obtains its Kohn-Sham potential from the (non-public) RSPACE
//! code.  This workspace substitutes an
//! *empirical* norm-conserving-style pseudopotential: a short-ranged
//! Gaussian local part plus separable Kleinman-Bylander s/p projectors.
//! The parameters below are not fitted to experiment — they are chosen so
//! that the resulting Hamiltonians have the same structure (sparsity,
//! Hermiticity, localized non-local blocks) and qualitatively reasonable
//! band widths, which is what the eigensolver experiments exercise.

/// Chemical elements used by the paper's test systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Element {
    /// Aluminium (bulk electrode material).
    Al,
    /// Carbon (nanotubes).
    C,
    /// Boron (dopant).
    B,
    /// Nitrogen (dopant).
    N,
}

/// Parameters of one Kleinman-Bylander projector channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KbChannel {
    /// Angular momentum (0 = s, 1 = p).
    pub l: usize,
    /// Kleinman-Bylander energy (hartree); the coupling strength of the
    /// separable term `E_kb |p⟩⟨p|`.
    pub energy: f64,
    /// Gaussian width of the projector (bohr).
    pub width: f64,
}

/// Empirical pseudopotential parameters of an element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PseudoParams {
    /// Number of valence electrons contributed to the Fermi-level estimate.
    pub valence: f64,
    /// Depth of the Gaussian local potential well (hartree, negative).
    pub local_depth: f64,
    /// Width of the Gaussian local potential (bohr).
    pub local_width: f64,
    /// Repulsive core correction amplitude (hartree, positive).
    pub core_height: f64,
    /// Width of the repulsive core correction (bohr).
    pub core_width: f64,
    /// Kleinman-Bylander channels (s and p).
    pub channels: [KbChannel; 2],
    /// Cut-off radius of the non-local projectors (bohr).
    pub projector_cutoff: f64,
}

impl Element {
    /// Short chemical symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            Element::Al => "Al",
            Element::C => "C",
            Element::B => "B",
            Element::N => "N",
        }
    }

    /// Empirical pseudopotential parameters (see module docs for caveats).
    pub fn pseudo(&self) -> PseudoParams {
        match self {
            Element::Al => PseudoParams {
                valence: 3.0,
                local_depth: -0.85,
                local_width: 1.9,
                core_height: 0.35,
                core_width: 0.9,
                channels: [
                    KbChannel { l: 0, energy: 0.55, width: 1.35 },
                    KbChannel { l: 1, energy: 0.30, width: 1.55 },
                ],
                projector_cutoff: 2.8,
            },
            Element::C => PseudoParams {
                valence: 4.0,
                local_depth: -1.90,
                local_width: 1.15,
                core_height: 0.60,
                core_width: 0.55,
                channels: [
                    KbChannel { l: 0, energy: 0.95, width: 0.85 },
                    KbChannel { l: 1, energy: 0.50, width: 1.00 },
                ],
                projector_cutoff: 2.2,
            },
            Element::B => PseudoParams {
                valence: 3.0,
                local_depth: -1.55,
                local_width: 1.25,
                core_height: 0.50,
                core_width: 0.60,
                channels: [
                    KbChannel { l: 0, energy: 0.80, width: 0.95 },
                    KbChannel { l: 1, energy: 0.42, width: 1.10 },
                ],
                projector_cutoff: 2.3,
            },
            Element::N => PseudoParams {
                valence: 5.0,
                local_depth: -2.25,
                local_width: 1.05,
                core_height: 0.70,
                core_width: 0.50,
                channels: [
                    KbChannel { l: 0, energy: 1.05, width: 0.80 },
                    KbChannel { l: 1, energy: 0.58, width: 0.92 },
                ],
                projector_cutoff: 2.1,
            },
        }
    }
}

/// One atom: element plus Cartesian position in bohr.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    /// Chemical species.
    pub element: Element,
    /// Cartesian position (bohr) inside the cell: `x, y ∈ [0, Lx/Ly)`,
    /// `z ∈ [0, a)` where `a` is the period along the transport direction.
    pub position: [f64; 3],
}

impl Atom {
    /// Convenience constructor.
    pub fn new(element: Element, position: [f64; 3]) -> Self {
        Self { element, position }
    }
}

/// An atomic structure: the atoms of one unit cell of a 1-D periodic system,
/// plus the cell extents.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomicStructure {
    /// Human-readable name (used in benchmark output).
    pub name: String,
    /// Atoms of the unit cell.
    pub atoms: Vec<Atom>,
    /// Lateral cell extents `(Lx, Ly)` in bohr.
    pub lateral: (f64, f64),
    /// Period along the transport (z) direction in bohr.
    pub period: f64,
}

impl AtomicStructure {
    /// Number of atoms in the unit cell.
    pub fn natoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total number of valence electrons per unit cell.
    pub fn valence_electrons(&self) -> f64 {
        self.atoms.iter().map(|a| a.element.pseudo().valence).sum()
    }

    /// Counts per element, in a stable order (for reporting).
    pub fn composition(&self) -> Vec<(Element, usize)> {
        let mut counts: Vec<(Element, usize)> = Vec::new();
        for a in &self.atoms {
            if let Some(e) = counts.iter_mut().find(|(el, _)| *el == a.element) {
                e.1 += 1;
            } else {
                counts.push((a.element, 1));
            }
        }
        counts
    }

    /// Verify every atom sits inside the declared cell.
    pub fn validate(&self) -> Result<(), String> {
        for (i, a) in self.atoms.iter().enumerate() {
            let [x, y, z] = a.position;
            if !(0.0..self.lateral.0).contains(&x)
                || !(0.0..self.lateral.1).contains(&y)
                || !(0.0..self.period).contains(&z)
            {
                return Err(format!(
                    "atom {i} ({}) at ({x:.3}, {y:.3}, {z:.3}) lies outside the cell \
                     {:.3} x {:.3} x {:.3}",
                    a.element.symbol(),
                    self.lateral.0,
                    self.lateral.1,
                    self.period
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_parameters_are_physical() {
        for e in [Element::Al, Element::C, Element::B, Element::N] {
            let p = e.pseudo();
            assert!(p.valence > 0.0);
            assert!(p.local_depth < 0.0, "{}: local part must be attractive", e.symbol());
            assert!(p.local_width > 0.0 && p.core_width > 0.0);
            assert!(p.projector_cutoff > 0.0);
            assert_eq!(p.channels[0].l, 0);
            assert_eq!(p.channels[1].l, 1);
            for ch in p.channels {
                assert!(ch.energy > 0.0 && ch.width > 0.0);
            }
        }
    }

    #[test]
    fn composition_and_valence() {
        let s = AtomicStructure {
            name: "test".into(),
            atoms: vec![
                Atom::new(Element::C, [1.0, 1.0, 0.5]),
                Atom::new(Element::C, [2.0, 1.0, 0.5]),
                Atom::new(Element::N, [1.5, 2.0, 1.0]),
            ],
            lateral: (5.0, 5.0),
            period: 3.0,
        };
        assert_eq!(s.natoms(), 3);
        assert_eq!(s.valence_electrons(), 4.0 + 4.0 + 5.0);
        let comp = s.composition();
        assert_eq!(comp, vec![(Element::C, 2), (Element::N, 1)]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_out_of_cell_atoms() {
        let s = AtomicStructure {
            name: "bad".into(),
            atoms: vec![Atom::new(Element::C, [6.0, 1.0, 0.5])],
            lateral: (5.0, 5.0),
            period: 3.0,
        };
        assert!(s.validate().is_err());
    }
}

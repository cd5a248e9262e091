//! Construction of the paper's test systems at a configurable resolution.
//!
//! The paper uses a 0.2 Å (≈ 0.38 bohr) grid; on a single core that is not
//! practical for the full experiment matrix, so every harness binary accepts
//! a `CBS_SCALE` environment variable: `1.0` reproduces the paper's grids,
//! the default `0.45` uses a coarser grid that preserves every code path and
//! the qualitative comparisons while keeping runtimes in seconds/minutes.

use cbs_dft::{
    bulk_al_100, carbon_nanotube, crystalline_bundle, fermi_energy, grid_for_structure,
    AtomicStructure, BlockHamiltonian, HamiltonianParams,
};
use cbs_grid::FdOrder;

/// Paper grid spacing: 0.2 angstrom in bohr.
pub const PAPER_SPACING_BOHR: f64 = 0.2 * 1.889_725_988_6;

/// Resolution scale factor read from `CBS_SCALE` (1.0 = paper resolution);
/// values outside `(0.05, 1.0]` are rejected like malformed ones.
pub fn scale_factor() -> f64 {
    cbs_trace::knob::<ScaleFactor>("CBS_SCALE").map_or(0.45, |s| s.0)
}

/// A `CBS_SCALE` value inside `(0.05, 1.0]`; anything else (NaN included)
/// does not parse, so [`cbs_trace::knob()`] warns about it.
struct ScaleFactor(f64);

impl cbs_trace::Knob for ScaleFactor {
    fn parse_knob(value: &str) -> Option<Self> {
        f64::parse_knob(value).filter(|&v| v > 0.05 && v <= 1.0).map(Self)
    }
}

/// Grid spacing implied by the current scale factor (coarser than the paper
/// for scale < 1).
pub fn spacing() -> f64 {
    PAPER_SPACING_BOHR / scale_factor()
}

/// A named, discretized system ready for the eigensolvers.
pub struct BenchSystem {
    /// Human-readable name matching the paper's tables.
    pub name: String,
    /// The atomic structure.
    pub structure: AtomicStructure,
    /// The assembled Hamiltonian blocks.
    pub hamiltonian: BlockHamiltonian,
    /// Estimated Fermi energy (hartree).
    pub fermi: f64,
}

fn build(structure: AtomicStructure, fd: FdOrder, estimate_fermi: bool) -> BenchSystem {
    let grid = grid_for_structure(&structure, spacing());
    let hamiltonian =
        BlockHamiltonian::build(grid, &structure, HamiltonianParams { fd, include_nonlocal: true });
    let fermi = if estimate_fermi && grid.npoints() <= 600 {
        fermi_energy(&hamiltonian, structure.valence_electrons(), 3)
    } else {
        // Mid-band heuristic for systems too large for the dense reference.
        0.2
    };
    BenchSystem { name: structure.name.clone(), structure, hamiltonian, fermi }
}

/// Bulk Al(100), 4 atoms per cell (paper §4.1).
pub fn al100() -> BenchSystem {
    build(bulk_al_100(1), FdOrder::PAPER, true)
}

/// (6,6) armchair CNT, 24 atoms per cell (paper §4.1).
pub fn cnt66() -> BenchSystem {
    build(carbon_nanotube(6, 6, 5.0), FdOrder::PAPER, true)
}

/// Pristine (8,0) zigzag CNT, 32 atoms per cell (paper §4.2.1).
pub fn cnt80() -> BenchSystem {
    build(carbon_nanotube(8, 0, 5.0), FdOrder::PAPER, true)
}

/// The crystalline bundle (two tubes per cell) of the application section.
pub fn crystalline_bundle_system() -> BenchSystem {
    build(crystalline_bundle(8, 0), FdOrder::PAPER, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_is_sane() {
        let s = scale_factor();
        assert!(s > 0.0 && s <= 1.0);
        assert!(spacing() >= PAPER_SPACING_BOHR);
    }

    #[test]
    fn al_system_builds() {
        let sys = al100();
        assert_eq!(sys.structure.natoms(), 4);
        assert!(sys.hamiltonian.dim() > 0);
        assert!(sys.fermi.is_finite());
    }

    #[test]
    fn knobs_accept_only_their_spellings() {
        use cbs_parallel::ExecutorChoice;
        use cbs_trace::Knob;
        for rejected in ["2.0", "0.05", "0.01", "nan", "x"] {
            assert!(ScaleFactor::parse_knob(rejected).is_none(), "CBS_SCALE={rejected}");
        }
        for accepted in ["0.45", "1.0"] {
            assert!(ScaleFactor::parse_knob(accepted).is_some(), "CBS_SCALE={accepted}");
        }
        for (value, choice) in [
            ("serial", ExecutorChoice::Serial),
            ("SERIAL", ExecutorChoice::Serial),
            ("rayon", ExecutorChoice::Rayon),
            ("Rayon", ExecutorChoice::Rayon),
        ] {
            assert_eq!(ExecutorChoice::parse_knob(value), Some(choice), "CBS_EXECUTOR={value}");
        }
        for rejected in ["threads", ""] {
            assert_eq!(ExecutorChoice::parse_knob(rejected), None, "CBS_EXECUTOR={rejected:?}");
        }
    }
}

//! The harness the paper-figure examples share (`fig4_serial`,
//! `fig5_convergence`, `fig6_cbs`, `fig11_bundles`, `table1_breakdown`):
//! the paper's test systems at one fixed resolution and the one
//! `SsConfig` they solve with.  Every setting is a constant, here or in
//! the example that uses it.

#![allow(dead_code, reason = "each example uses a subset of the shared harness")]

use cbs::core::{PrecondPolicy, SsConfig};
use cbs::dft::{
    bulk_al_100, carbon_nanotube, crystalline_bundle, fermi_energy, grid_for_structure,
    AtomicStructure, BlockHamiltonian, HamiltonianParams,
};
use cbs::grid::FdOrder;

/// Paper grid spacing: 0.2 angstrom in bohr.
const PAPER_SPACING_BOHR: f64 = 0.2 * 1.889_725_988_6;

/// Grid resolution relative to the paper's.  1.0 is the paper's 0.2 Å
/// grid; 0.45 is coarser and keeps every code path and the qualitative
/// comparisons at a small fraction of the cost.
pub const GRID_SCALE: f64 = 0.45;

/// Right-hand sides per quadrature node, `N_rh`.
const N_RH: usize = 8;

/// A named, discretized system ready for the eigensolvers.
pub struct System {
    /// Name matching the paper's tables.
    pub name: String,
    /// The atomic structure.
    pub structure: AtomicStructure,
    /// The Hamiltonian blocks.
    pub hamiltonian: BlockHamiltonian,
    /// Estimated Fermi energy (hartree).
    pub fermi: f64,
    /// Wall time of `BlockHamiltonian::build` (Table 1's setup row).
    pub setup_seconds: f64,
}

fn build(structure: AtomicStructure, estimate_fermi: bool) -> System {
    let grid = grid_for_structure(&structure, PAPER_SPACING_BOHR / GRID_SCALE);
    let params = HamiltonianParams { fd: FdOrder::PAPER, include_nonlocal: true };
    #[expect(
        clippy::disallowed_types,
        reason = "example wall-clock: reported runtime statistic, never fingerprinted"
    )]
    let t0 = std::time::Instant::now();
    let hamiltonian = BlockHamiltonian::build(grid, &structure, params);
    let setup_seconds = t0.elapsed().as_secs_f64();
    let fermi = if estimate_fermi && grid.npoints() <= 600 {
        fermi_energy(&hamiltonian, structure.valence_electrons(), 3)
    } else {
        // Mid-band heuristic for systems too large for the dense reference.
        0.2
    };
    System { name: structure.name.clone(), structure, hamiltonian, fermi, setup_seconds }
}

/// Bulk Al(100), 4 atoms per cell (paper §4.1).
pub fn al100() -> System {
    build(bulk_al_100(1), true)
}

/// (6,6) armchair CNT, 24 atoms per cell (paper §4.1).
pub fn cnt66() -> System {
    build(carbon_nanotube(6, 6, 5.0), true)
}

/// Pristine (8,0) zigzag CNT, 32 atoms per cell (paper §4.2.1).
pub fn cnt80() -> System {
    build(carbon_nanotube(8, 0, 5.0), true)
}

/// The crystalline bundle (two tubes per cell) of the application section.
pub fn bundle() -> System {
    build(crystalline_bundle(8, 0), false)
}

/// The two systems of the paper's serial experiments (Figs. 4–6, Table 1).
pub fn serial_systems() -> [System; 2] {
    [al100(), cnt66()]
}

/// The harness's solver settings: the paper's contour and moments, and the
/// diagonal-ILU split, which solves these systems faster than the paper's
/// unpreconditioned default.
pub fn ss_config() -> SsConfig {
    SsConfig {
        n_int: 32,
        n_mm: 8,
        n_rh: N_RH,
        bicg_tolerance: 1e-10,
        residual_cutoff: 1e-4,
        precond: PrecondPolicy::AssembledIlu0,
        ..SsConfig::paper()
    }
}

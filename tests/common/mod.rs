//! Fixtures shared by the integration tests: the fig6 Al(100) system at the
//! bench resolution, the solver configuration every suite runs it under, and
//! the coarse (8,0) nanotube.
//!
//! One definition on purpose.  The node count is pinned at 12.  With the
//! Laurent-centred moments, 8 nodes already find every pair of a 32-node
//! reference for each of 32 source-block seeds at four energies
//! (`tests/centred_moments.rs`), but the worst accepted residual there is
//! 1.6e-6, within a factor of 7 of the 1e-5 acceptance filter.  At 12 it
//! is 7e-9 for every seed, so no suite's pair count hangs on the
//! realization of the random source block, and — the Hamiltonian being
//! real — only 6 of the 12 nodes are solved.
#![allow(dead_code, reason = "each test crate uses its own subset")]

use cbs::core::SsConfig;
use cbs::dft::{
    bulk_al_100, carbon_nanotube, grid_for_structure, BlockHamiltonian, HamiltonianParams,
};

/// Quadrature nodes per circle of [`fig6_config`].
pub const FIG6_N_INT: usize = 12;

/// Nodes of [`fig6_config`] that are actually solved on the (real) fig6
/// system: the upper half-plane half of the ring.
pub const FIG6_SOLVED_NODES: usize = FIG6_N_INT / 2;

/// The fig6 Al(100) system at the bench resolution (343 grid points).
pub fn fig6_hamiltonian() -> BlockHamiltonian {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.5);
    BlockHamiltonian::build(
        grid,
        &s,
        HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true },
    )
}

/// A coarse (8,0) carbon nanotube (605 grid points, 32 atoms): the
/// projector-heavy counterpart of fig6.
pub fn cnt80_hamiltonian() -> BlockHamiltonian {
    let tube = carbon_nanotube(8, 0, 3.0);
    let grid = grid_for_structure(&tube, 1.6);
    BlockHamiltonian::build(
        grid,
        &tube,
        HamiltonianParams { fd: cbs::grid::FdOrder::new(1), include_nonlocal: true },
    )
}

/// The fig6 solver configuration; suites override the policy fields with
/// struct-update syntax.
pub fn fig6_config() -> SsConfig {
    SsConfig { n_int: FIG6_N_INT, n_mm: 4, n_rh: 4, bicg_max_iterations: 400, ..SsConfig::small() }
}

//! Quickstart: complex band structure of bulk aluminium at one energy.
//!
//! Builds the real-space Hamiltonian of an Al(100) cell, solves the CBS
//! quadratic eigenvalue problem with the Sakurai-Sugiura method at the
//! estimated Fermi energy, and prints the resulting complex wave numbers.
//!
//! Run with: `cargo run --release --example quickstart`

use cbs::core::SsConfig;
use cbs::dft::{
    bulk_al_100, fermi_energy, grid_for_structure, BlockHamiltonian, HamiltonianParams,
};
use cbs::parallel::RayonExecutor;
use cbs::sweep::{EnergySweep, SweepConfig};

fn main() {
    // 1. Structure and real-space grid (coarse spacing to keep this instant).
    let structure = bulk_al_100(1);
    let grid = grid_for_structure(&structure, 0.95);
    println!(
        "Al(100): {} atoms, grid {}x{}x{} = {} points",
        structure.natoms(),
        grid.nx,
        grid.ny,
        grid.nz,
        grid.npoints()
    );

    // 2. Kohn-Sham blocks H00 / H01 (kinetic + local + non-local projectors).
    let h = BlockHamiltonian::build(grid, &structure, HamiltonianParams::default());
    let ef = fermi_energy(&h, structure.valence_electrons(), 3);
    println!("estimated Fermi energy: {ef:.4} Ha");

    // 3. Solve the QEP at E = EF with the Sakurai-Sugiura method, fanning
    //    the N_int x N_rh shifted solves out over the rayon executor (the
    //    serial executor gives bit-identical results).
    let config = SsConfig { n_rh: 8, ..SsConfig::small() };
    let (h00, h01) = (h.h00(), h.h01());
    let run = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(config))
        .run(&[ef], &RayonExecutor);

    println!("\n  Re k [1/bohr]   Im k [1/bohr]   |lambda|   type");
    for p in &run.cbs.points {
        println!(
            "  {:>12.6}   {:>12.6}   {:>8.5}   {}",
            p.k_re,
            p.k_im,
            p.lambda.abs(),
            if p.propagating { "propagating" } else { "evanescent" }
        );
    }
    println!(
        "\n{} propagating and {} evanescent states at E = EF; {} BiCG iterations total.",
        run.cbs.propagating().count(),
        run.cbs.evanescent().count(),
        run.stats.total_bicg_iterations
    );
}

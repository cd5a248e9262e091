//! Complex band structure of a semiconducting (8,0) carbon nanotube over an
//! energy window around the Fermi level — the kind of data used to predict
//! tunnelling decay lengths in nanotube devices.
//!
//! Run with: `cargo run --release --example cnt_complex_bands`

use cbs::core::SsConfig;
use cbs::dft::{
    carbon_nanotube, fermi_energy, grid_for_structure, BlockHamiltonian, HamiltonianParams,
};
use cbs::grid::FdOrder;
use cbs::parallel::RayonExecutor;
use cbs::sweep::{EnergySweep, SweepConfig};

fn main() {
    let tube = carbon_nanotube(8, 0, 4.0);
    // Coarse grid: this example is about the workflow, not convergence.
    let grid = grid_for_structure(&tube, 1.15);
    println!("{}: {} atoms, {} grid points", tube.name, tube.natoms(), grid.npoints());

    let h = BlockHamiltonian::build(
        grid,
        &tube,
        HamiltonianParams { fd: FdOrder::new(4), include_nonlocal: true },
    );
    let ef =
        if grid.npoints() <= 800 { fermi_energy(&h, tube.valence_electrons(), 3) } else { 0.2 };

    let energies: Vec<f64> = (0..7).map(|i| ef - 0.06 + 0.02 * i as f64).collect();
    let config = SsConfig { n_int: 16, n_mm: 6, n_rh: 6, ..SsConfig::paper() };
    // All seven energies' shifted solves go out as one flat task pool.
    let (h00, h01) = (h.h00(), h.h01());
    let run = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(config))
        .run(&energies, &RayonExecutor);

    println!("\n   E - EF [Ha]   channels   smallest |Im k| of evanescent states [1/bohr]");
    for (i, &e) in run.cbs.energies.iter().enumerate() {
        let channels = run.cbs.at_energy(i).filter(|p| p.propagating).count();
        let min_decay = run
            .cbs
            .at_energy(i)
            .filter(|p| !p.propagating)
            .map(|p| p.k_im.abs())
            .fold(f64::INFINITY, f64::min);
        println!("   {:>10.4}   {:>8}   {:>12.6}", e - ef, channels, min_decay);
    }
    println!("\nThe smallest |Im k| is the slowest-decaying evanescent mode: it controls");
    println!("the tunnelling current through a barrier made of this material.");
}

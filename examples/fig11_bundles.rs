//! Figure 11: complex band structures of the isolated (8,0) tube and the
//! crystalline bundle around the Fermi energy, 5 energies each, swept on
//! the rayon executor.
//!
//! Run with: `cargo run --release --example fig11_bundles`

mod paper;

use cbs::core::SsConfig;
use cbs::parallel::RayonExecutor;
use cbs::sweep::{EnergySweep, SweepConfig};

/// Scan energies per system.
const N_ENERGIES: usize = 5;

fn main() {
    println!("=== Figure 11: CBS of carbon-nanotube bundles ===");
    let config = SsConfig { n_rh: 4, ..paper::ss_config() };
    for sys in [paper::cnt80(), paper::bundle()] {
        let h = &sys.hamiltonian;
        let energies: Vec<f64> = (0..N_ENERGIES)
            .map(|i| sys.fermi - 0.037 + 0.074 * i as f64 / (N_ENERGIES - 1) as f64)
            .collect();
        let (h00, h01) = (h.h00(), h.h01());
        let run = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(config))
            .run(&energies, &RayonExecutor);
        println!(
            "-- {}: {} atoms, {} propagating / {} evanescent states over {} energies --",
            sys.name,
            sys.structure.natoms(),
            run.cbs.propagating().count(),
            run.cbs.evanescent().count(),
            N_ENERGIES
        );
        println!("   sweep: {} BiCG iterations", run.stats.total_bicg_iterations);
    }
}

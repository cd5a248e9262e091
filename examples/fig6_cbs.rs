//! Figure 6: complex band structure vs conventional band structure for
//! Al(100) and the (6,6) CNT, 12 energies each, swept on the rayon
//! executor.  The conventional bands come from the dense eigensolver,
//! which only the smaller system affords: the CNT's reference is skipped.
//!
//! Run with: `cargo run --release --example fig6_cbs`

mod paper;

use cbs::dft::band_structure;
use cbs::parallel::RayonExecutor;
use cbs::sweep::{EnergySweep, SweepConfig};

/// Scan energies per system.
const N_ENERGIES: usize = 12;

/// Largest grid the dense reference bands are computed for: the general
/// eigensolver on the full Bloch Hamiltonian at 21 k-points fits in minutes
/// on Al(100) (729 points) and takes hours on the (6,6) CNT (5 400).
const REFERENCE_MAX_POINTS: usize = 2_000;

fn main() {
    println!("=== Figure 6: CBS vs conventional band structure ===");
    for sys in paper::serial_systems() {
        let h = &sys.hamiltonian;
        let bands =
            (h.dim() <= REFERENCE_MAX_POINTS).then(|| band_structure(h, 21, 40.min(h.dim())));
        let (emin, emax) = (sys.fermi - 0.15, sys.fermi + 0.15);
        let energies: Vec<f64> = (0..N_ENERGIES)
            .map(|i| emin + (emax - emin) * i as f64 / (N_ENERGIES - 1) as f64)
            .collect();
        let (h00, h01) = (h.h00(), h.h01());
        let run = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(paper::ss_config()))
            .run(&energies, &RayonExecutor);
        println!("-- {}: complex band structure --", sys.name);
        println!("   E [Ha]      Re k [1/bohr]   Im k [1/bohr]   |λ|        type");
        let mut worst = 0.0f64;
        for p in &run.cbs.points {
            let kind = if p.propagating { "propagating" } else { "evanescent" };
            println!(
                "   {:>8.4}   {:>12.6}   {:>12.6}   {:>8.5}   {}",
                p.energy,
                p.k_re,
                p.k_im,
                p.lambda.abs(),
                kind
            );
            if let Some(bands) = bands.as_ref().filter(|_| p.propagating) {
                worst = worst.max(bands.distance_to_bands(p.k_re, p.energy));
            }
        }
        println!(
            "   propagating states: {}, evanescent: {}",
            run.cbs.propagating().count(),
            run.cbs.evanescent().count()
        );
        let solves: usize = run.records.iter().map(|r| r.stats.solves).sum();
        println!("   BiCG iterations: {} over {} solves", run.stats.total_bicg_iterations, solves);
        if bands.is_some() {
            println!(
                "   worst distance of a real-k solution to the reference bands: {worst:.2e} Ha"
            );
        } else {
            println!(
                "   reference bands skipped: {} grid points > {REFERENCE_MAX_POINTS}",
                h.dim()
            );
        }
    }
}

//! Energy sweep: the `cbs-sweep` orchestrator on a small Al(100) cell.
//!
//! Runs one scan with adaptive band-edge refinement — every energy solved
//! independently, the initial grid in one flat task pool and each
//! refinement generation in one more — and prints the BiCG iterations, the
//! refined energies and the channel counts.  Also demonstrates
//! checkpointing: the sweep writes a checkpoint after every completed
//! energy and the example resumes it to show the bit-identical restart
//! path.
//!
//! Run with: `cargo run --release --example energy_sweep`

use cbs::core::SsConfig;
use cbs::dft::{
    band_structure, bulk_al_100, fermi_energy, grid_for_structure, BlockHamiltonian,
    HamiltonianParams,
};
use cbs::parallel::RayonExecutor;
use cbs::sweep::{BandEdgeRefiner, EnergyOrigin, EnergySweep, RunOptions, SweepConfig};

fn main() {
    // 1. Structure, grid, Kohn-Sham blocks (coarse spacing: instant build).
    let structure = bulk_al_100(1);
    let grid = grid_for_structure(&structure, 0.95);
    let h = BlockHamiltonian::build(grid, &structure, HamiltonianParams::default());
    let ef = fermi_energy(&h, structure.valence_electrons(), 3);
    println!("Al(100): {} atoms, {} grid points, EF ≈ {ef:.4} Ha", structure.natoms(), h.dim());

    // 2. A scan window around the Fermi energy.
    let n_energies = 6;
    let energies: Vec<f64> =
        (0..n_energies).map(|i| ef - 0.06 + 0.12 * i as f64 / (n_energies - 1) as f64).collect();
    let ss =
        SsConfig { n_int: 12, n_mm: 4, n_rh: 4, bicg_max_iterations: 2_000, ..SsConfig::small() };

    // 3. The sweep, with band-edge-driven refinement.  SweepConfig knobs:
    //    `max_refinements` budgets the extra energies, `min_refine_spacing`
    //    stops the bisection.
    let (h00, h01) = (h.h00(), h.h01());
    let config =
        SweepConfig { min_refine_spacing: 1e-3, ..SweepConfig::new(ss).with_refinement(4) };
    let bands = band_structure(&h, 13, 8);
    let refiner = BandEdgeRefiner::new(&bands);
    let sweep = EnergySweep::new(&h00, &h01, h.period(), config);
    let cp_path = std::env::temp_dir().join("cbs_energy_sweep_example.cp");
    let run = sweep
        .run_with(
            &energies,
            &RayonExecutor,
            RunOptions {
                checkpoint_path: Some(&cp_path),
                predicate: Some(&refiner),
                ..RunOptions::default()
            },
        )
        .expect("checkpoint I/O")
        .expect_complete("no energy budget set");

    println!(
        "\nsweep: {} BiCG iterations over {} energies ({} refined, {:.0} per energy)",
        run.stats.total_bicg_iterations,
        run.cbs.energies.len(),
        run.stats.refined_energies,
        run.stats.total_bicg_iterations as f64 / run.cbs.energies.len() as f64,
    );

    println!("\n   E [Ha]      channels   states   origin");
    for (i, (e, channels)) in run.cbs.channel_counts().into_iter().enumerate() {
        let origin = match run.records[i].origin {
            EnergyOrigin::Initial(_) => "initial",
            EnergyOrigin::Refined { .. } => "refined",
        };
        println!("   {e:>8.4}   {channels:>8}   {:>6}   {origin}", run.cbs.at_energy(i).count());
    }

    // 4. Resume the finished checkpoint (same configuration, same
    //    refinement predicate — the replayed refinement decisions depend on
    //    it): everything is already done, so this is a no-op returning the
    //    same band structure bit for bit.
    let cp = cbs::sweep::SweepCheckpoint::load(&cp_path).expect("load checkpoint");
    let resumed = sweep
        .run_with(
            &energies,
            &RayonExecutor,
            RunOptions { resume: Some(cp), predicate: Some(&refiner), ..RunOptions::default() },
        )
        .expect("resume")
        .expect_complete("nothing left to solve");
    assert_eq!(resumed.cbs.points.len(), run.cbs.points.len());
    for (a, b) in resumed.cbs.points.iter().zip(&run.cbs.points) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
    }
    println!("\ncheckpoint resume reproduced all {} points bit-identically", run.cbs.points.len());
    std::fs::remove_file(&cp_path).ok();
}

//! Energy sweep: the `cbs-sweep` orchestrator on a small Al(100) cell.
//!
//! Runs the same scan twice — cold (flat task pool, every energy solved
//! from scratch; bit-identical to the per-energy `compute_cbs` loop) and
//! warm-started with adaptive band-edge refinement — and prints the BiCG
//! iteration savings, the refined energies and the channel counts.  Also
//! demonstrates checkpointing: the warm sweep writes a checkpoint after
//! every completed energy and the example resumes it to show the
//! bit-identical restart path.
//!
//! Run with: `cargo run --release --example energy_sweep`

use cbs::core::SsConfig;
use cbs::dft::{
    band_structure, bulk_al_100, fermi_energy, grid_for_structure, BlockHamiltonian,
    HamiltonianParams,
};
use cbs::parallel::RayonExecutor;
use cbs::sweep::{sweep_cbs, BandEdgeRefiner, EnergyOrigin, EnergySweep, RunOptions, SweepConfig};

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

    // 3. Cold reference: one flat round, no cross-energy reuse.
    let (h00, h01) = (h.h00(), h.h01());
    let cold = sweep_cbs(&h00, &h01, h.period(), &energies, &SweepConfig::cold(ss), &RayonExecutor);

    // 4. Warm-started sweep with band-edge-driven refinement.  SweepConfig
    //    knobs: `initial_round` sizes the cold anchor round of the dyadic
    //    wavefront, `max_refinements` budgets the extra energies,
    //    `min_refine_spacing` stops the bisection, `seed_bank_capacity`
    //    bounds the donor memory.
    let config = SweepConfig {
        initial_round: 2,
        min_refine_spacing: 1e-3,
        ..SweepConfig::new(ss).with_refinement(4)
    };
    let bands = band_structure(&h, 13, 8);
    let refiner = BandEdgeRefiner::new(&bands);
    let sweep = EnergySweep::new(&h00, &h01, h.period(), config);
    let cp_path = std::env::temp_dir().join("cbs_energy_sweep_example.cp");
    let warm = sweep
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
        "\ncold sweep: {} BiCG iterations over {} energies ({:.0} per energy)",
        cold.stats.total_bicg_iterations,
        cold.cbs.energies.len(),
        cold.stats.total_bicg_iterations as f64 / cold.cbs.energies.len() as f64,
    );
    println!(
        "warm sweep: {} BiCG iterations ({} warm / {} cold) over {} energies ({} refined, {:.0} per energy)",
        warm.stats.total_bicg_iterations,
        warm.stats.warm_bicg_iterations,
        warm.stats.cold_bicg_iterations,
        warm.cbs.energies.len(),
        warm.stats.refined_energies,
        warm.stats.total_bicg_iterations as f64 / warm.cbs.energies.len() as f64,
    );

    println!("\n   E [Ha]      channels   states   origin");
    for (i, (e, channels)) in warm.cbs.channel_counts().into_iter().enumerate() {
        let origin = match warm.records[i].origin {
            EnergyOrigin::Initial(_) => "initial",
            EnergyOrigin::Refined { .. } => "refined",
        };
        println!("   {e:>8.4}   {channels:>8}   {:>6}   {origin}", warm.cbs.at_energy(i).count());
    }

    // 5. Resume the finished checkpoint (same configuration, same
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
    assert_eq!(resumed.cbs.points.len(), warm.cbs.points.len());
    for (a, b) in resumed.cbs.points.iter().zip(&warm.cbs.points) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
    }
    println!("\ncheckpoint resume reproduced all {} points bit-identically", warm.cbs.points.len());
    std::fs::remove_file(&cp_path).ok();
}

//! Energy sweep: the `cbs-sweep` orchestrator on a small Al(100) cell.
//!
//! Runs one uniform scan — every energy solved independently, the grid in
//! one flat task pool — then refines it in caller code: one more sweep over
//! the midpoints of adjacent energies whose propagating-channel counts
//! differ.  Prints the BiCG iterations and the merged table of channel
//! counts.  Also demonstrates checkpointing: the sweep writes a checkpoint
//! after every completed energy and the example resumes it to show the
//! bit-identical restart path.
//!
//! Run with: `cargo run --release --example energy_sweep`

use cbs::core::SsConfig;
use cbs::dft::{
    bulk_al_100, fermi_energy, grid_for_structure, BlockHamiltonian, HamiltonianParams,
};
use cbs::parallel::RayonExecutor;
use cbs::sweep::{EnergyRecord, EnergySweep, RunOptions, SweepCheckpoint, SweepConfig};

/// Most midpoints the refinement run solves.
const MAX_REFINED: usize = 4;

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

    // 3. The uniform sweep, checkpointed after every energy.
    let (h00, h01) = (h.h00(), h.h01());
    let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(ss));
    let cp_path = std::env::temp_dir().join("cbs_energy_sweep_example.cp");
    let options = RunOptions { checkpoint_path: Some(&cp_path), ..RunOptions::default() };
    let run = sweep.run_with(&energies, &RayonExecutor, options).expect("checkpoint I/O");

    // 4. Refinement: one more sweep over the midpoints of adjacent energies
    //    whose channel counts differ.  An energy's result does not depend on
    //    the run that solves it, so the two runs merge into one table.
    let channels = |r: &EnergyRecord| r.points.iter().filter(|p| p.propagating).count();
    let midpoints: Vec<f64> = run
        .records
        .windows(2)
        .filter(|w| channels(&w[0]) != channels(&w[1]))
        .map(|w| 0.5 * (w[0].energy + w[1].energy))
        .take(MAX_REFINED)
        .collect();
    let refined = sweep.run(&midpoints, &RayonExecutor);
    let mut table: Vec<(&EnergyRecord, &str)> =
        run.records.iter().map(|r| (r, "initial")).collect();
    table.extend(refined.records.iter().map(|r| (r, "refined")));
    table.sort_by(|a, b| a.0.energy.total_cmp(&b.0.energy));

    let iterations = run.stats.total_bicg_iterations + refined.stats.total_bicg_iterations;
    println!(
        "\nsweep: {iterations} BiCG iterations over {} energies ({} refined, {:.0} per energy)",
        table.len(),
        midpoints.len(),
        iterations as f64 / table.len() as f64,
    );
    println!("\n   E [Ha]      channels   states   origin");
    for (r, origin) in &table {
        println!("   {:>8.4}   {:>8}   {:>6}   {origin}", r.energy, channels(r), r.points.len());
    }

    // 5. Resume the finished checkpoint of the uniform sweep (same
    //    configuration, same grid): everything is already done, so this is
    //    a no-op returning the same band structure bit for bit.
    let cp = SweepCheckpoint::load(&cp_path).expect("load checkpoint");
    let resumed = sweep
        .run_with(
            &energies,
            &RayonExecutor,
            RunOptions { resume: Some(cp), ..RunOptions::default() },
        )
        .expect("resume");
    assert_eq!(resumed.cbs.points.len(), run.cbs.points.len());
    for (a, b) in resumed.cbs.points.iter().zip(&run.cbs.points) {
        assert_eq!(a.lambda.re.to_bits(), b.lambda.re.to_bits());
        assert_eq!(a.lambda.im.to_bits(), b.lambda.im.to_bits());
    }
    println!("\ncheckpoint resume reproduced all {} points bit-identically", run.cbs.points.len());
    std::fs::remove_file(&cp_path).ok();
}

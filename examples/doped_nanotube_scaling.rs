//! BN-doped nanotube supercells and the hierarchical parallelism: builds a
//! doped supercell, measures the per-iteration BiCG cost of its QEP operator,
//! and uses the calibrated Oakforest-PACS model to show how the three
//! parallel layers would share 2048 nodes.
//!
//! Run with: `cargo run --release --example doped_nanotube_scaling`

use cbs::core::{QepProblem, SsConfig};
use cbs::dft::{
    bn_dope, carbon_nanotube, grid_for_structure, supercell_z, BlockHamiltonian, HamiltonianParams,
};
use cbs::parallel::{
    measure_bicg_iteration_cost, MachineModel, ParallelLayout, PerformanceModel, WorkloadModel,
};

fn main() {
    // A small doped supercell that fits comfortably on one core; the model
    // extrapolates to the paper's 1024-atom system.
    let base = carbon_nanotube(8, 0, 4.0);
    let doped = bn_dope(&supercell_z(&base, 2), 4, 7);
    let grid = grid_for_structure(&doped, 1.2);
    println!("{}: {} atoms, {} grid points", doped.name, doped.natoms(), grid.npoints());
    let h = BlockHamiltonian::build(grid, &doped, HamiltonianParams::default());

    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, 0.2, h.period());
    let config = SsConfig::paper();
    let z = config.contour().outer_points()[0].z;
    let op = problem.operator(z);
    let seconds = measure_bicg_iteration_cost(&op, 30, 3);
    let per_point = seconds / (30.0 * h.dim() as f64);
    println!("measured BiCG cost: {per_point:.3e} s per grid point per iteration");

    let model = PerformanceModel {
        machine: MachineModel::oakforest_pacs(),
        workload: WorkloadModel {
            dimension: h.dim() * 16, // extrapolate to the 1024-atom cell
            nnz_per_row: h.nnz() as f64 / h.dim() as f64,
            plane_size: h.grid.nx * h.grid.ny,
            nf: h.fd.nf,
            n_int: 32,
            conjugate_symmetric: false, // the paper's run: all 32 nodes solved
            n_rh: 16,
            bicg_iterations: 2000.0,
            seconds_per_point_iteration: per_point,
            convergence_spread: 0.2,
        },
    };

    println!("\n   nodes   layout (rhs x quad x domains)   predicted time [s]   speed-up");
    let mut first = None;
    for &nodes in &[4usize, 16, 64, 256, 1024, 2048] {
        let layout = ParallelLayout::assign(nodes * 4, 16, 32); // 4 processes per node
        let t = model.predict(&layout).total();
        let f = *first.get_or_insert(t);
        println!(
            "   {:>5}   {:>3} x {:>3} x {:>3}              {:>12.1}   {:>7.1}",
            nodes,
            layout.rhs_groups,
            layout.quadrature_groups,
            layout.domains,
            t,
            f / t
        );
    }
    println!("\nUpper layers are filled first (no communication); only beyond");
    println!("N_rh x N_int processes does the domain decomposition start to carry load.");
}

//! Table 1: breakdown of the computational cost of the proposed method,
//! measured on serial runs as in the paper, with the bytes of the operator
//! every solve reads (the Hamiltonian's stencil of shared row templates).
//!
//! Run with: `cargo run --release --example table1_breakdown`

mod paper;

use cbs::core::{solve_qep_with, QepProblem};
use cbs::parallel::SerialExecutor;

fn main() {
    println!("=== Table 1: cost breakdown of the QEP/SS method ===");
    for sys in paper::serial_systems() {
        let h = &sys.hamiltonian;
        let (h00, h01) = (h.h00(), h.h01());
        let problem = QepProblem::new(&h00, &h01, sys.fermi, h.period());
        let ss = solve_qep_with(&problem, &paper::ss_config(), &SerialExecutor);
        println!("-- {} --", sys.name);
        println!("   read/setup matrix data [s]   {:>10.4}", sys.setup_seconds);
        println!("   solve linear equations [s]   {:>10.4}", ss.timings.linear_solve_seconds);
        println!("   extract eigenpairs     [s]   {:>10.4}", ss.timings.extraction_seconds);
        println!("   stored operator        [MB]  {:>10.4}", h.memory_bytes() as f64 / 1e6);
    }
}

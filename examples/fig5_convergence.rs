//! Figure 5: BiCG residual histories at every quadrature point z_j.
//!
//! Each system is solved on the serial and on the rayon executor, and the
//! example panics unless every residual history of the two runs is
//! bitwise equal (the deterministic-parallelism contract); it prints the
//! histories once, one row per listed node: its first column's iteration
//! count and final residual, the larger of the primal and the dual
//! residual (one dual-BiCG solve serves the outer node `z_j` and its
//! inner-circle twin `1/z̄_j`).  Both systems are real, so only the upper
//! half of the ring, `j < N_int/2`, is solved; the lower half mirrors it.
//!
//! Run with: `cargo run --release --example fig5_convergence`

mod paper;

use cbs::core::{solve_qep_with, QepProblem, SsResult};
use cbs::parallel::{RayonExecutor, SerialExecutor};
use cbs::solver::StopReason;

fn main() {
    println!("=== Figure 5: BiCG convergence behaviour per quadrature point ===");
    let config = paper::ss_config();
    for sys in paper::serial_systems() {
        let h = &sys.hamiltonian;
        let (h00, h01) = (h.h00(), h.h01());
        let problem = QepProblem::new(&h00, &h01, sys.fermi, h.period());
        let ss = solve_qep_with(&problem, &config, &SerialExecutor);
        let threaded = solve_qep_with(&problem, &config, &RayonExecutor);
        assert!(
            history_bits(&ss) == history_bits(&threaded),
            "{}: serial and rayon residual histories differ",
            sys.name
        );
        println!("-- {}: BiCG convergence at each quadrature point z_j --", sys.name);
        println!("   j   iterations   final residual");
        let mut iters = Vec::new();
        for (j, node) in ss.solve_histories.chunks(config.n_rh).enumerate() {
            let hist = &node[0];
            iters.push(hist.iterations());
            println!("  {:>2}   {:>10}   {:.3e}", j, hist.iterations(), hist.final_residual());
        }
        let max = iters.iter().max().copied().unwrap_or(0);
        let min = iters.iter().min().copied().unwrap_or(0);
        println!("   spread: min {min}, max {max}");
    }
}

/// Every history of `ss` as bits: residuals, stop reason and matvecs.
fn history_bits(ss: &SsResult) -> Vec<(Vec<u64>, StopReason, usize)> {
    ss.solve_histories
        .iter()
        .map(|h| {
            let residuals = h.residuals.iter().map(|r| r.to_bits()).collect();
            (residuals, h.stop_reason, h.matvecs)
        })
        .collect()
}

//! Figure 4: serial runtime and memory usage, OBM vs QEP/Sakurai-Sugiura,
//! for bulk Al(100) and the (6,6) CNT.  The paper solves at E = EF; the
//! harness estimates EF only for grids of at most 600 points, and both
//! serial systems have more (729 points for Al(100) at the default grid
//! scale), so both run at its fixed 0.2 Ha (ROADMAP item 19).  Both
//! methods run on the calling thread, as the paper measures them.
//!
//! Run with: `cargo run --release --example fig4_serial`

mod paper;

use cbs::core::{solve_qep_with, QepProblem};
use cbs::obm::{obm_solve, ObmConfig};
use cbs::parallel::SerialExecutor;

fn main() {
    println!("=== Figure 4: serial performance, OBM vs QEP/SS ===");
    println!("(grid scale factor {})", paper::GRID_SCALE);
    for sys in paper::serial_systems() {
        compare(&sys);
    }
}

/// One bar group of Figure 4.
fn compare(sys: &paper::System) {
    let h = &sys.hamiltonian;
    let (h00, h01) = (h.h00(), h.h01());
    let problem = QepProblem::new(&h00, &h01, sys.fermi, h.period());
    let config = paper::ss_config();

    let t0 = cbs::trace::now_ns();
    let ss = solve_qep_with(&problem, &config, &SerialExecutor);
    let ss_seconds = cbs::trace::seconds_between(t0, cbs::trace::now_ns());
    // SS memory: the operator, the source block, the moment store the
    // solve accumulated into and the Hankel workspace.
    let m_hat = config.subspace_size();
    let ss_bytes =
        h.memory_bytes() + config.n_rh * h.dim() * 16 + ss.moment_store_bytes + m_hat * m_hat * 16;

    let (h00_csr, h01_csr) = (h.h00_csr(), h.h01_csr());
    let t1 = cbs::trace::now_ns();
    let obm = obm_solve(&h00_csr, &h01_csr, sys.fermi, &ObmConfig::default());
    let obm_seconds = cbs::trace::seconds_between(t1, cbs::trace::now_ns());

    println!("-- {} (N = {}, E = {:.4} Ha) --", sys.name, h.dim(), sys.fermi);
    println!("   method    runtime [s]   memory [MB]   eigenvalues in annulus");
    println!(
        "   OBM       {:>10.3}   {:>10.3}   {}",
        obm_seconds,
        obm.memory_bytes as f64 / 1e6,
        obm.lambdas.len()
    );
    println!(
        "   QEP/SS    {:>10.3}   {:>10.3}   {}",
        ss_seconds,
        ss_bytes as f64 / 1e6,
        ss.eigenpairs.len()
    );
    println!(
        "   speed-up x{:.1}, memory reduction x{:.1}",
        obm_seconds / ss_seconds.max(1e-12),
        obm.memory_bytes as f64 / ss_bytes.max(1) as f64
    );
}

//! Saturation of the subspace, read off the Hankel spectrum at no cost
//! (`SsResult::saturation`).  On the fig6 Al(100) cell (125 points) under
//! its 16-column configuration (`N_mm` 4, `N_rh` 4) the annulus holds more
//! states than the columns by 0.6 Ha: the rank is every column and no pair
//! comes back.  At 0.11 Ha the same columns resolve the annulus, and at
//! 0.6 Ha 64 columns (`N_mm` 8, `N_rh` 8) do.

use cbs::core::{solve_qep_with, QepProblem, Saturation, SsConfig};
use cbs::parallel::SerialExecutor;

mod common;

#[test]
fn fig6_saturation_is_reported_where_the_columns_run_out() {
    let h = common::fig6_hamiltonian();
    let (h00, h01) = (h.h00(), h.h01());
    let solve = |energy: f64, ss: &SsConfig| {
        solve_qep_with(&QepProblem::new(&h00, &h01, energy, h.period()), ss, &SerialExecutor)
    };
    let fig6 = common::fig6_config();

    let saturated = solve(0.6, &fig6);
    assert_eq!(saturated.saturation(), Saturation::Saturated { columns: 16 });
    assert!(saturated.eigenpairs.is_empty(), "{} pairs", saturated.eigenpairs.len());

    let resolved = solve(0.11, &fig6);
    assert_eq!(resolved.saturation(), Saturation::Unsaturated { rank: 5, columns: 16 });
    assert!(!resolved.eigenpairs.is_empty());

    let wider = solve(0.6, &SsConfig { n_mm: 8, n_rh: 8, ..fig6 });
    assert_eq!(wider.saturation(), Saturation::Unsaturated { rank: 32, columns: 64 });
    assert!(!wider.eigenpairs.is_empty());
}

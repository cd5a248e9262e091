//! Laurent-centred moments on the fig6 Al(100) cell (343 points): at 8
//! quadrature nodes, every source-block seed finds every eigenpair of a
//! 32-node reference.  With the textbook powers `k = 0 … 2N_mm − 1` the
//! same fan loses 18 of its 320 reference pairs, on 9 of the 32 seeds: the
//! high powers alias first, and which pairs they cost depends on the seed.

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsConfig};
use cbs::linalg::Complex64;
use cbs::parallel::SerialExecutor;

mod common;

const ENERGIES: [f64; 4] = [0.05, 0.09, 0.13, 0.17];

#[test]
fn fig6_seed_fan_finds_every_reference_pair_at_eight_nodes() {
    let h = common::fig6_hamiltonian();
    let (h00, h01) = (h.h00(), h.h01());
    let base = SsConfig { precond: PrecondPolicy::MatrixFree, ..common::fig6_config() };
    let lambdas = |energy: f64, n_int: usize, seed: u64| -> Vec<Complex64> {
        let problem = QepProblem::new(&h00, &h01, energy, h.period());
        solve_qep_with(&problem, &SsConfig { n_int, seed, ..base }, &SerialExecutor).lambdas()
    };

    let (mut expected, mut missed) = (0usize, Vec::new());
    for energy in ENERGIES {
        let reference = lambdas(energy, 32, 1);
        assert!(!reference.is_empty(), "E = {energy}: the reference found nothing");
        for seed in 1..=32 {
            let found = lambdas(energy, 8, seed);
            for &want in &reference {
                expected += 1;
                if !found.iter().any(|&l| (l - want).abs() <= 1e-4) {
                    missed.push((energy, seed, want));
                }
            }
        }
    }
    assert!(missed.is_empty(), "{} of {expected} reference pairs missed: {missed:?}", missed.len());
}

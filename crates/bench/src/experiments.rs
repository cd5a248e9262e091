//! One function per paper table/figure; the `src/bin/*` harness binaries are
//! thin wrappers around these.  Every function prints a plain-text table to
//! stdout in the same layout as the corresponding figure/table of the paper
//! and returns the key numbers so integration tests can assert on them.

use cbs_core::{solve_qep_with, PrecondPolicy, QepProblem, RingPlan, SsConfig, SsResult};
use cbs_dft::{band_structure, BlockHamiltonian};
use cbs_obm::{obm_solve, ObmConfig};
use cbs_parallel::{ExecutorChoice, RayonExecutor, SerialExecutor};
use cbs_sweep::{EnergySweep, SweepConfig, SweepResult};

use crate::systems::{self, BenchSystem};

/// Solve one QEP through the shifted-solve pool, with the executor chosen
/// by the `CBS_EXECUTOR` environment variable (`serial` default, `rayon`
/// for the threaded fan-out; the results are bit-identical either way) and
/// the preconditioning by `CBS_PRECOND` (`matrix-free` or `ilu0`; unset
/// keeps the configured policy, the diagonal ILU in the harness's own
/// configuration).
pub fn solve_qep_env(problem: &QepProblem<'_>, config: &SsConfig) -> SsResult {
    let config = SsConfig { precond: precond_policy_env(config.precond), ..*config };
    match ExecutorChoice::from_env("CBS_EXECUTOR") {
        ExecutorChoice::Serial => solve_qep_with(problem, &config, &SerialExecutor),
        ExecutorChoice::Rayon => solve_qep_with(problem, &config, &RayonExecutor),
    }
}

/// Energy-sweep twin of [`solve_qep_env`], running through the `cbs-sweep`
/// orchestrator: the scan energies share one flattened task pool, each
/// solved independently — bit for bit its own `solve_qep_with`.
pub fn sweep_env(h: &BlockHamiltonian, energies: &[f64], config: &SsConfig) -> SweepResult {
    let config = SsConfig { precond: precond_policy_env(config.precond), ..*config };
    let h00 = h.h00();
    let h01 = h.h01();
    let sweep = EnergySweep::new(&h00, &h01, h.period(), SweepConfig::new(config));
    match ExecutorChoice::from_env("CBS_EXECUTOR") {
        ExecutorChoice::Serial => sweep.run(energies, &SerialExecutor),
        ExecutorChoice::Rayon => sweep.run(energies, &RayonExecutor),
    }
}

fn ss_config() -> SsConfig {
    SsConfig {
        n_int: 32,
        n_mm: 8,
        n_rh: env_usize("CBS_NRH", 8),
        bicg_tolerance: 1e-10,
        residual_cutoff: 1e-4,
        precond: PrecondPolicy::AssembledIlu0,
        ..SsConfig::paper()
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    cbs_trace::knob(key).unwrap_or(default)
}

/// `CBS_PRECOND` overrides the configured operator representation /
/// preconditioning only when it is set to a *valid* policy name; unset (or
/// malformed, which warns once) keeps the caller's choice.
fn precond_policy_env(configured: PrecondPolicy) -> PrecondPolicy {
    cbs_trace::knob("CBS_PRECOND").unwrap_or(configured)
}

/// Serial head-to-head of QEP/SS vs OBM on one system (one bar group of
/// Figure 4).  Returns `(ss_seconds, obm_seconds, ss_bytes, obm_bytes)`.
pub fn fig4_compare(sys: &BenchSystem) -> (f64, f64, usize, usize) {
    let h = &sys.hamiltonian;
    let energy = sys.fermi;
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, energy, h.period());

    #[expect(
        clippy::disallowed_types,
        reason = "bench wall-clock: reported runtime statistic, never fingerprinted"
    )]
    let t0 = std::time::Instant::now();
    let ss = solve_qep_env(&problem, &ss_config());
    let ss_seconds = t0.elapsed().as_secs_f64();
    // SS memory: sparse blocks + the source block + the moment store the
    // solve accumulates into + the Hankel workspace.
    let plan = RingPlan::build(&problem, &ss_config()).unwrap_or_else(|e| panic!("{e}"));
    let m_hat = ss_config().subspace_size();
    let ss_bytes = h.memory_bytes()
        + ss_config().n_rh * h.dim() * 16
        + plan.accumulator().memory_bytes()
        + m_hat * m_hat * 16;

    let h00_csr = h.h00_csr();
    let h01_csr = h.h01_csr();
    #[expect(
        clippy::disallowed_types,
        reason = "bench wall-clock: reported runtime statistic, never fingerprinted"
    )]
    let t1 = std::time::Instant::now();
    let obm = obm_solve(&h00_csr, &h01_csr, energy, &ObmConfig::default());
    let obm_seconds = t1.elapsed().as_secs_f64();

    println!("-- {} (N = {}, E = {:.4} Ha) --", sys.name, h.dim(), energy);
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
    (ss_seconds, obm_seconds, ss_bytes, obm.memory_bytes)
}

/// Table 1: cost breakdown of the proposed method for one system.
pub fn table1_breakdown(sys: &BenchSystem) -> (f64, f64, f64) {
    let h = &sys.hamiltonian;
    #[expect(
        clippy::disallowed_types,
        reason = "bench wall-clock: reported runtime statistic, never fingerprinted"
    )]
    let t0 = std::time::Instant::now();
    let h00 = h.h00();
    let h01 = h.h01();
    let setup = t0.elapsed().as_secs_f64();
    let problem = QepProblem::new(&h00, &h01, sys.fermi, h.period());
    let ss = solve_qep_env(&problem, &ss_config());
    println!("-- {} --", sys.name);
    println!("   read/setup matrix data [s]   {:>10.3}", setup);
    println!("   solve linear equations [s]   {:>10.3}", ss.timings.linear_solve_seconds);
    println!("   extract eigenpairs     [s]   {:>10.3}", ss.timings.extraction_seconds);
    (setup, ss.timings.linear_solve_seconds, ss.timings.extraction_seconds)
}

/// Figure 5: BiCG residual histories at every quadrature point (first RHS).
/// Returns the iteration counts per quadrature point.
pub fn fig5_convergence(sys: &BenchSystem) -> Vec<usize> {
    let h = &sys.hamiltonian;
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, sys.fermi, h.period());
    let config = ss_config();
    let ss = solve_qep_env(&problem, &config);
    println!("-- {}: BiCG convergence at each quadrature point z_j --", sys.name);
    println!("   j   iterations   final residual");
    let mut iters = Vec::new();
    for j in 0..config.n_int {
        let hist = &ss.solve_histories[j * config.n_rh];
        iters.push(hist.iterations());
        println!("  {:>2}   {:>10}   {:.3e}", j, hist.iterations(), hist.final_residual());
    }
    let max = iters.iter().max().copied().unwrap_or(0);
    let min = iters.iter().min().copied().unwrap_or(0);
    println!("   spread: min {min}, max {max} (uniform convergence across z_j)");
    iters
}

/// Figure 6: real-k CBS solutions vs the conventional band structure.
/// Returns the worst absolute energy-distance of a propagating CBS point to
/// the reference bands (hartree).
pub fn fig6_cbs_vs_bands(sys: &BenchSystem, n_energies: usize) -> f64 {
    let h = &sys.hamiltonian;
    let bands = band_structure(h, 21, 40.min(h.dim()));
    let (emin, emax) = (sys.fermi - 0.15, sys.fermi + 0.15);
    let energies: Vec<f64> = (0..n_energies)
        .map(|i| emin + (emax - emin) * i as f64 / (n_energies - 1).max(1) as f64)
        .collect();
    let run = sweep_env(h, &energies, &ss_config());
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
        if p.propagating {
            worst = worst.max(bands.distance_to_bands(p.k_re.abs(), p.energy));
        }
    }
    println!(
        "   propagating states: {}, evanescent: {}",
        run.cbs.propagating().count(),
        run.cbs.evanescent().count()
    );
    println!(
        "   BiCG iterations: {} over {} solves",
        run.stats.total_bicg_iterations, run.stats.cold_solves,
    );
    println!("   worst distance of a real-k solution to the reference bands: {worst:.2e} Ha");
    worst
}

/// Figure 11: CBS of the isolated tube and the bundles around the Fermi
/// energy.  Returns the number of propagating channels found per system.
pub fn fig11_bundles(n_energies: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for sys in [systems::cnt80(), systems::crystalline_bundle_system()] {
        let h = &sys.hamiltonian;
        let energies: Vec<f64> = (0..n_energies)
            .map(|i| sys.fermi - 0.037 + 0.074 * i as f64 / (n_energies - 1).max(1) as f64)
            .collect();
        let config = SsConfig { n_rh: 4, ..ss_config() };
        let run = sweep_env(h, &energies, &config);
        let channels = run.cbs.propagating().count();
        println!(
            "-- {}: {} atoms, {} propagating / {} evanescent states over {} energies --",
            sys.name,
            sys.structure.natoms(),
            channels,
            run.cbs.evanescent().count(),
            n_energies
        );
        println!("   sweep: {} BiCG iterations", run.stats.total_bicg_iterations);
        out.push((sys.name.clone(), channels));
    }
    out
}

/// Helper shared by fig4/fig5/table1 binaries: the two serial-test systems.
pub fn serial_systems() -> Vec<BenchSystem> {
    vec![systems::al100(), systems::cnt66()]
}

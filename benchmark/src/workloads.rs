//! The four workloads: what system each builds, which single library call it
//! times, and the constants its correctness check uses.  Everything here goes
//! through the `cbs` facade; the README lists the exact surface.

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsConfig, SsResult};
use cbs::dft::{
    bulk_al_100, carbon_nanotube, grid_for_structure, BlockHamiltonian, BlockOp, HamiltonianParams,
};
use cbs::parallel::{RayonExecutor, SerialExecutor, TaskExecutor};
use cbs::sparse::{AssembledPattern, FactoredProjector};
use cbs::sweep::{EnergySweep, SweepConfig, SweepResult};

/// Which atomic system a workload discretizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cell {
    /// `bulk_al_100(1)` at the given grid spacing (bohr).
    Al100 { spacing: f64 },
    /// `carbon_nanotube(8, 0, 5.0)` at spacing 1.15 bohr.
    Cnt80,
}

/// One workload: inputs, the call, and the oracle's constants.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub cell: Cell,
    /// Scan energies (hartree); one entry means `solve_qep_with`, several
    /// mean a warm `EnergySweep::run`.
    pub energies: &'static [f64],
    pub n_int: usize,
    pub n_mm: usize,
    pub n_rh: usize,
    pub bicg_max_iterations: usize,
    pub residual_cutoff: f64,
    pub precond: PrecondPolicy,
    /// `RayonExecutor` instead of `SerialExecutor`.
    pub parallel: bool,
    /// One untimed repetition first (page faults, scratch pools).
    pub warmup: bool,
    /// `SsConfig::auto`: only the traced pass's probe-share measurement
    /// sets it.
    pub auto: bool,
    /// Eigenpairs a correct run returns (per run, all energies together);
    /// every one short of this is a failed operation.
    pub expected_pairs: usize,
    /// A returned eigenvalue with no reference eigenvalue within
    /// `lambda_tol * (1 + |ref|)` is a failed operation.
    pub lambda_tol: f64,
    /// Committed reference eigenvalues: file name under `reference/` and its
    /// text (`oracle::parse_reference` format), regenerated only by the
    /// `reference` subcommand.
    pub reference: (&'static str, &'static str),
}

macro_rules! reference {
    ($file:literal) => {
        ($file, include_str!(concat!("../reference/", $file)))
    };
}

const SWEEP_ENERGIES: [f64; 8] = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19];

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "al100_sweep8",
        cell: Cell::Al100 { spacing: 1.1 },
        energies: &SWEEP_ENERGIES,
        // 12 nodes, not the 8 of `BENCH_sweep.json`: at 8 the quadrature
        // error leaves eigenpair residuals at 1e-5..3e-4 depending on the
        // source-block seed, so some seeds lose pairs to the 1e-5 filter;
        // at 12 the worst residual over 121 seeds is 1.5e-8.
        n_int: 12,
        n_mm: 4,
        n_rh: 4,
        bicg_max_iterations: 400,
        residual_cutoff: 1e-5,
        precond: PrecondPolicy::AssembledIlu0,
        parallel: false,
        warmup: true,
        auto: false,
        expected_pairs: 16,
        lambda_tol: 1e-6,
        reference: reference!("al100_sweep8.txt"),
    },
    Spec {
        name: "al12k_solve_ilu0",
        cell: Cell::Al100 { spacing: 0.34 },
        energies: &[0.1],
        // 12 nodes for the same reason as above: at 8 the worst residual of
        // 37 seeds is 1.3e-6 and the worst eigenvalue error 3.3e-6, a tail
        // too close to the 1e-5 filter to run under arbitrary seeds.
        n_int: 12,
        n_mm: 4,
        n_rh: 4,
        bicg_max_iterations: 2000,
        residual_cutoff: 1e-5,
        precond: PrecondPolicy::AssembledIlu0,
        parallel: false,
        warmup: false,
        auto: false,
        expected_pairs: 2,
        lambda_tol: 1e-6,
        reference: reference!("al12k_solve_ilu0.txt"),
    },
    CNT80_MF,
    Spec { name: "cnt80_solve_mf_par", parallel: true, ..CNT80_MF },
];

const CNT80_MF: Spec = Spec {
    name: "cnt80_solve_mf",
    cell: Cell::Cnt80,
    energies: &[0.2],
    n_int: 16,
    n_mm: 6,
    // 8 columns: with 6 the 36-dimensional subspace is saturated by the 26
    // eigenvalues inside the annulus plus those just outside (numerical rank
    // 34-35), residuals reach 9.5e-5 on some seeds and a pair is one unlucky
    // seed from the 1e-4 filter; with 8 the worst residual of 22 seeds is
    // 1.8e-6.
    n_rh: 8,
    bicg_max_iterations: 2000,
    residual_cutoff: 1e-4,
    precond: PrecondPolicy::MatrixFree,
    parallel: false,
    warmup: false,
    auto: false,
    expected_pairs: 26,
    lambda_tol: 1e-4,
    // Both cnt80 workloads solve the same problem, so they share one file.
    reference: reference!("cnt80_solve_mf.txt"),
};

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The solver configuration; `seed` reaches the library only here, as
    /// the seed of the random source block.  The physics, and so the
    /// reference eigenvalues, do not depend on it.
    pub fn ss_config(&self, seed: u64) -> SsConfig {
        SsConfig {
            n_int: self.n_int,
            n_mm: self.n_mm,
            n_rh: self.n_rh,
            bicg_max_iterations: self.bicg_max_iterations,
            residual_cutoff: self.residual_cutoff,
            precond: self.precond,
            auto: self.auto,
            seed,
            ..SsConfig::paper()
        }
    }

    pub fn is_sweep(&self) -> bool {
        self.energies.len() > 1
    }
}

/// Everything built before the first solve; building it is what `setup_s`
/// times.
pub struct System {
    pub h: BlockHamiltonian,
    /// The factored assembled backend, built only for assembled policies.
    pub factored: Option<(AssembledPattern, FactoredProjector)>,
}

impl System {
    pub fn build_hamiltonian(cell: Cell) -> BlockHamiltonian {
        let (structure, spacing) = match cell {
            Cell::Al100 { spacing } => (bulk_al_100(1), spacing),
            Cell::Cnt80 => (carbon_nanotube(8, 0, 5.0), 1.15),
        };
        let grid = grid_for_structure(&structure, spacing);
        BlockHamiltonian::build(grid, &structure, HamiltonianParams::default())
    }

    /// The pattern/projector pair with the pattern's triangular-solve
    /// schedule forced, so its `OnceLock` never initializes in a timed rep.
    pub fn build_factored(h: &BlockHamiltonian) -> (AssembledPattern, FactoredProjector) {
        let factored = h.qep_factored();
        factored.0.tri_schedule();
        factored
    }

    pub fn build(spec: &Spec) -> Self {
        let h = Self::build_hamiltonian(spec.cell);
        let factored = spec.precond.is_assembled().then(|| Self::build_factored(&h));
        Self { h, factored }
    }
}

/// What the timed call returned.
pub enum Output {
    Sweep(SweepResult),
    Solve(SsResult),
}

/// The prepared library call of a workload; `run` is the timed region.
// One value per process: boxing the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Call<'a> {
    Sweep { sweep: EnergySweep<'a>, energies: &'static [f64] },
    Solve { problem: QepProblem<'a>, config: SsConfig },
}

impl<'a> Call<'a> {
    pub fn prepare(
        spec: &Spec,
        sys: &'a System,
        h00: &'a BlockOp<'a>,
        h01: &'a BlockOp<'a>,
        seed: u64,
    ) -> Self {
        let config = spec.ss_config(seed);
        let period = sys.h.period();
        if spec.is_sweep() {
            let sweep_config = SweepConfig { initial_round: 2, ..SweepConfig::new(config) };
            let mut sweep = EnergySweep::new(h00, h01, period, sweep_config);
            if let Some((pattern, projector)) = &sys.factored {
                sweep = sweep.with_pattern(pattern.clone()).with_projector(projector.clone());
            }
            Call::Sweep { sweep, energies: spec.energies }
        } else {
            let mut problem = QepProblem::new(h00, h01, spec.energies[0], period);
            if let Some((pattern, projector)) = &sys.factored {
                problem = problem.with_pattern(pattern).with_projector(projector);
            }
            Call::Solve { problem, config }
        }
    }

    fn run_on<E: TaskExecutor>(&self, executor: &E) -> Output {
        match self {
            Call::Sweep { sweep, energies } => Output::Sweep(sweep.run(energies, executor)),
            Call::Solve { problem, config } => {
                Output::Solve(solve_qep_with(problem, config, executor))
            }
        }
    }

    pub fn run(&self, parallel: bool) -> Output {
        if parallel {
            self.run_on(&RayonExecutor)
        } else {
            self.run_on(&SerialExecutor)
        }
    }
}

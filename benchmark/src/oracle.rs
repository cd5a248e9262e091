//! The correctness oracle: counts every operation of a run and the ones that
//! failed, against committed reference eigenvalues that the timed code path
//! did not produce.

use cbs::core::{QepProblem, SsResult};
use cbs::linalg::{c64, Complex64};
use cbs::solver::StopReason;
use cbs::sweep::SweepResult;

use crate::workloads::{Output, Spec, System};

/// A reference eigenvalue: scan-energy index and `λ`.
pub type RefValue = (usize, Complex64);

/// Parse a reference file: `#` starts a comment; a data line is
/// `<energy index> <re> <im>` with `re`/`im` as the 16 hex digits of
/// `f64::to_bits` (exact round trip, as in the sweep checkpoint format).
pub fn parse_reference(text: &str) -> Vec<RefValue> {
    let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex f64 in reference"));
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "reference line needs index, re, im: {l:?}");
            (f[0].parse().expect("energy index in reference"), c64(hex(f[1]), hex(f[2])))
        })
        .collect()
}

pub fn format_reference(header: &str, values: &[RefValue]) -> String {
    let mut out: String = header.lines().map(|l| format!("# {l}\n")).collect();
    for (e, l) in values {
        out.push_str(&format!(
            "{e} {:016x} {:016x}  # {:+.12e} {:+.12e}\n",
            l.re.to_bits(),
            l.im.to_bits(),
            l.re,
            l.im
        ));
    }
    out
}

/// One returned eigenvalue with the residual the oracle holds it to.
pub struct Returned {
    pub energy_index: usize,
    pub lambda: Complex64,
    pub residual: f64,
}

/// Operation counts of one run, with the worst deviations seen.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Linear solves that hit the iteration cap or broke down (failures).
    pub nonconverged: u64,
    /// Linear solves ended by the majority-stop rule: the paper's load
    /// balancing working as designed, so counted but not failed.
    pub capped: u64,
    pub pairs: usize,
    pub worst_residual: f64,
    pub worst_lambda_dev: f64,
}

impl Verdict {
    /// Add another run's operations; the worst deviations carry over.
    pub fn absorb(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.nonconverged += other.nonconverged;
        self.capped += other.capped;
        self.pairs = other.pairs;
        self.worst_residual = self.worst_residual.max(other.worst_residual);
        self.worst_lambda_dev = self.worst_lambda_dev.max(other.worst_lambda_dev);
    }
}

/// `value > limit`, with a NaN exceeding every limit.
fn exceeds(value: f64, limit: f64) -> bool {
    value.is_nan() || value > limit
}

/// The counting rule, on plain data.  Operations:
/// * every shifted linear solve — fails on `MaxIterations` or `Breakdown`;
/// * every returned eigenpair — fails if its residual exceeds the cutoff;
/// * every returned eigenvalue again — fails if no reference eigenvalue of
///   its energy lies within `lambda_tol * (1 + |ref|)`;
/// * every eigenpair short of the expected count — one failure each.
pub fn count_ops(
    spec: &Spec,
    stops: &[StopReason],
    returned: &[Returned],
    reference: &[RefValue],
) -> Verdict {
    let mut v = Verdict { pairs: returned.len(), ..Verdict::default() };
    for stop in stops {
        v.attempted += 1;
        match stop {
            StopReason::Converged => {}
            StopReason::ExternalStop => v.capped += 1,
            StopReason::MaxIterations | StopReason::Breakdown => v.nonconverged += 1,
        }
    }
    v.failed += v.nonconverged;
    for r in returned {
        v.attempted += 2;
        v.worst_residual = v.worst_residual.max(r.residual);
        if exceeds(r.residual, spec.residual_cutoff) {
            v.failed += 1;
        }
        let dev = reference
            .iter()
            .filter(|(e, _)| *e == r.energy_index)
            .map(|(_, l)| (r.lambda - *l).abs() / (1.0 + l.abs()))
            .fold(f64::INFINITY, f64::min);
        v.worst_lambda_dev = v.worst_lambda_dev.max(dev);
        if exceeds(dev, spec.lambda_tol) {
            v.failed += 1;
        }
    }
    let missing = spec.expected_pairs.saturating_sub(returned.len()) as u64;
    v.attempted += missing;
    v.failed += missing;
    v
}

/// Check a single-energy solve.  Residuals are recomputed here with the
/// matrix-free operator on a fresh problem, not taken from the result.
pub fn check_solve(spec: &Spec, sys: &System, result: &SsResult) -> Verdict {
    let (h00, h01) = (sys.h.h00(), sys.h.h01());
    let problem = QepProblem::new(&h00, &h01, spec.energies[0], sys.h.period());
    let returned: Vec<Returned> = result
        .eigenpairs
        .iter()
        .map(|p| Returned {
            energy_index: 0,
            lambda: p.lambda,
            residual: problem.residual(p.lambda, &p.psi),
        })
        .collect();
    let stops: Vec<StopReason> = result.solve_histories.iter().map(|h| h.stop_reason).collect();
    count_ops(spec, &stops, &returned, &parse_reference(spec.reference.1))
}

/// Check a sweep.  `SweepResult` carries neither eigenvectors nor per-solve
/// stop reasons, so its operations are the eigenvalues only: the reported
/// residual, the reference match, and the expected count.
pub fn check_sweep(spec: &Spec, result: &SweepResult) -> Verdict {
    let returned: Vec<Returned> = result
        .cbs
        .points
        .iter()
        .map(|p| Returned { energy_index: p.energy_index, lambda: p.lambda, residual: p.residual })
        .collect();
    count_ops(spec, &[], &returned, &parse_reference(spec.reference.1))
}

pub fn check(spec: &Spec, sys: &System, output: &Output) -> Verdict {
    match output {
        Output::Solve(r) => check_solve(spec, sys, r),
        Output::Sweep(r) => check_sweep(spec, r),
    }
}

/// Produce the text of a workload's reference file, by a path the timed
/// call does not take: the matrix-free operator at `n_int` 32 and BiCG
/// tolerance 1e-12, keeping only eigenvalues whose recomputed residual is at
/// most 1e-8.  On the 343-point cell, where the dense OBM baseline is
/// affordable, every eigenvalue is also cross-checked against `obm_solve`
/// (another method altogether; near a band edge it is itself good to ~1e-5
/// only, which is why it cross-checks the reference instead of being it).
pub fn generate_reference(spec: &Spec) -> String {
    const OBM_MAX_DIM: usize = 1000;
    const OBM_AGREEMENT: f64 = 1e-4;
    let h = System::build_hamiltonian(spec.cell);
    let (h00, h01) = (h.h00(), h.h01());
    let config = cbs::core::SsConfig {
        n_int: 32,
        bicg_tolerance: 1e-12,
        bicg_max_iterations: 50_000,
        precond: cbs::core::PrecondPolicy::MatrixFree,
        ..spec.ss_config(cbs::core::SsConfig::paper().seed)
    };
    let obm_blocks = (h.dim() <= OBM_MAX_DIM).then(|| (h.h00_csr(), h.h01_csr()));
    let (mut values, mut returned, mut obm_worst) = (Vec::new(), 0, 0.0f64);
    for (i, &energy) in spec.energies.iter().enumerate() {
        let problem = QepProblem::new(&h00, &h01, energy, h.period());
        // Rayon only for the wait: the library's executors are bit-identical.
        let result = cbs::core::solve_qep_with(&problem, &config, &cbs::parallel::RayonExecutor);
        returned += result.eigenpairs.len();
        let kept: Vec<Complex64> = result
            .eigenpairs
            .iter()
            .filter(|p| problem.residual(p.lambda, &p.psi) <= 1e-8)
            .map(|p| p.lambda)
            .collect();
        if let Some((h00_csr, h01_csr)) = &obm_blocks {
            let obm = cbs::obm::obm_solve(
                h00_csr,
                h01_csr,
                energy,
                &cbs::obm::ObmConfig { green_tolerance: 1e-14, ..cbs::obm::ObmConfig::default() },
            );
            assert_eq!(
                obm.lambdas.len(),
                kept.len(),
                "OBM and SS disagree on the count at E = {energy}"
            );
            for l in &kept {
                let dev = obm.lambdas.iter().map(|o| (*o - *l).abs()).fold(f64::INFINITY, f64::min);
                assert!(
                    dev <= OBM_AGREEMENT,
                    "E = {energy}: {l:?} is {dev:.2e} from every OBM eigenvalue"
                );
                obm_worst = obm_worst.max(dev);
            }
        }
        values.extend(kept.into_iter().map(|l| (i, l)));
    }
    let mut header = format!(
        "{}: matrix-free solve, n_int 32, n_mm {}, n_rh {}, bicg_tolerance 1e-12, energies {:?}\n\
         eigenvalues with recomputed residual <= 1e-8: {} of {returned} returned",
        spec.name,
        spec.n_mm,
        spec.n_rh,
        spec.energies,
        values.len(),
    );
    if obm_blocks.is_some() {
        header.push_str(&format!(
            "\ncross-checked against obm_solve (green_tolerance 1e-14): same count at every energy, worst deviation {obm_worst:.2e}"
        ));
    }
    format_reference(&header, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, Call};

    #[test]
    fn reference_round_trips_bit_exactly() {
        let values = vec![(0, c64(0.1 + 0.2, -1.0 / 3.0)), (7, c64(-0.0, 1e-300))];
        let parsed = parse_reference(&format_reference("two lines\nof header", &values));
        assert_eq!(parsed.len(), 2);
        for ((e0, l0), (e1, l1)) in values.iter().zip(&parsed) {
            assert_eq!(e0, e1);
            assert_eq!((l0.re.to_bits(), l0.im.to_bits()), (l1.re.to_bits(), l1.im.to_bits()));
        }
    }

    /// The check can fail: one real solve of the 343-point system passes,
    /// the same result with a displaced eigenvalue does not, and neither
    /// does a solve cut off after three iterations.
    #[test]
    fn perturbed_lambda_and_unconverged_solve_fail() {
        // First energy of the sweep workload, as a single solve, so the
        // result carries eigenvectors and histories.
        let sweep = find("al100_sweep8").expect("workload exists");
        let spec = Spec { energies: &[0.05], expected_pairs: 2, ..*sweep };
        let sys = System::build(&spec);
        let (h00, h01) = (sys.h.h00(), sys.h.h01());

        let Output::Solve(good) = Call::prepare(&spec, &sys, &h00, &h01, 1).run(false) else {
            panic!("one energy prepares a solve")
        };
        let verdict = check_solve(&spec, &sys, &good);
        assert_eq!(verdict.failed, 0, "{verdict:?}");
        assert_eq!(verdict.pairs, 2);
        assert_eq!(verdict.attempted, (spec.n_int * spec.n_rh + 2 * 2) as u64);

        let mut displaced = good.clone();
        displaced.eigenpairs[0].lambda += c64(1e-3, 0.0);
        // Displaced against the reference *and* no longer an eigenvalue.
        assert_eq!(check_solve(&spec, &sys, &displaced).failed, 2);

        let mut short = good.clone();
        short.eigenpairs.pop();
        assert_eq!(check_solve(&spec, &sys, &short).failed, 1);

        let starved = Spec { bicg_max_iterations: 3, ..spec };
        let Output::Solve(bad) = Call::prepare(&starved, &sys, &h00, &h01, 1).run(false) else {
            panic!("one energy prepares a solve")
        };
        let verdict = check_solve(&starved, &sys, &bad);
        assert!(verdict.nonconverged > 0, "{verdict:?}");
        assert!(verdict.failed >= verdict.nonconverged);
    }
}

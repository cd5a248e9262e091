//! The traced pass: one run of the workload under benchmark-side spans, then
//! a layer-by-layer replay of one quadrature node of the same system through
//! public calls.  A layer's time in the full run is its exact count from the
//! run's result times its replayed unit cost; the shares of the run's wall
//! and the part no layer explains are reported last.

use std::collections::BTreeMap;
use std::hint::black_box;

use cbs::core::{solve_qep_with, PrecondPolicy, QepProblem, SsResult};
use cbs::linalg::{eigen, svd, CMatrix, CVector, Complex64};
use cbs::parallel::{RayonExecutor, SerialExecutor, TaskExecutor};
use cbs::solver::{bicg_dual_block_precond, SolverOptions};
use cbs::sparse::{LinearOperator, Preconditioner};
use cbs::sweep::{EnergySweep, RunOptions, SweepCheckpoint};
use cbs::trace::{TraceLevel, TraceSession};

use crate::json::Json;
use crate::measure::{self, Tracer};
use crate::oracle::{self, Verdict};
use crate::workloads::{Call, Output, Spec, System};

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// declares them.  All are emitted for every workload; one that does not
/// apply to a workload (no sweep, no preconditioner, a policy name that no
/// longer resolves) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dft.build_ms", "ms"),
    ("dft.pattern_ms", "ms"),
    ("sparse.tri_schedule_ms", "ms"),
    ("sparse.assemble_ns_per_nnz", "ns"),
    ("sparse.ilu0_factor_ns_per_nnz", "ns"),
    ("sparse.spmm_ns_per_nnz_col", "ns"),
    ("sparse.spmm_adj_ns_per_nnz_col", "ns"),
    ("sparse.spmm_gbps_computed", "GB/s"),
    ("sparse.spmm_flops_per_byte", "flop/B"),
    ("sparse.trisolve_ns_per_nnz_col", "ns"),
    ("sparse.trisolve_adj_ns_per_nnz_col", "ns"),
    ("sparse.mf_apply_ns_per_nnz_col", "ns"),
    ("sparse.projector_ns_per_row_col", "ns"),
    ("sparse.smw_setup_ms", "ms"),
    ("sparse.smw_rank", "count"),
    ("machine.triad_gbps", "GB/s"),
    ("machine.triad_array_mib", "MiB"),
    ("machine.llc_mib", "MiB"),
    ("solver.iterations", "count"),
    ("solver.matvecs", "count"),
    ("solver.nonconverged", "count"),
    ("solver.capped", "count"),
    ("solver.block_iter_us", "us"),
    ("solver.vecops_share", "frac"),
    ("core.node_setup_ms", "ms"),
    ("core.node_solve_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.traversals", "count"),
    ("core.assemblies", "count"),
    ("core.accepted", "count"),
    ("linalg.svd_ms", "ms"),
    ("linalg.eig_ms", "ms"),
    ("parallel.threads", "count"),
    ("parallel.speedup", "x"),
    ("parallel.efficiency", "frac"),
    ("parallel.imbalance", "x"),
    ("parallel.dispatch_us_per_task", "us"),
    ("sweep.warm_iter_ratio", "x"),
    ("sweep.checkpoint_save_ms", "ms"),
    ("sweep.checkpoint_bytes", "B"),
    ("sweep.auto_probe_share", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.run_wall_s", "s"),
    ("sparse.spmm.share", "frac"),
    ("sparse.projector.share", "frac"),
    ("sparse.mf_apply.share", "frac"),
    ("sparse.trisolve.share", "frac"),
    ("sparse.node_setup.share", "frac"),
    ("solver.vecops.share", "frac"),
    ("core.extract.share", "frac"),
    ("layers.unattributed_frac", "frac"),
];

/// The exact counters of one run, as its result reports them.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    pub iterations: usize,
    pub matvecs: usize,
    pub traversals: usize,
    pub assemblies: usize,
    pub accepted: usize,
    pub extraction_seconds: f64,
}

impl Counters {
    pub fn of(output: &Output) -> Self {
        match output {
            Output::Solve(r) => Self {
                iterations: r.total_bicg_iterations,
                matvecs: r.total_matvecs,
                traversals: r.total_traversals,
                assemblies: r.operator_assemblies,
                accepted: r.eigenpairs.len(),
                extraction_seconds: r.timings.extraction_seconds,
            },
            Output::Sweep(r) => Self {
                iterations: r.stats.total_bicg_iterations,
                matvecs: r.stats.total_matvecs,
                traversals: r.stats.operator_traversals,
                assemblies: r.stats.operator_assemblies,
                accepted: r.stats.accepted,
                extraction_seconds: r.stats.extraction_seconds,
            },
        }
    }
}

impl Counters {
    /// The integer counters, which a deterministic library repeats exactly.
    pub fn exact(&self) -> [(&'static str, usize); 5] {
        [
            ("solver.iterations", self.iterations),
            ("solver.matvecs", self.matvecs),
            ("core.traversals", self.traversals),
            ("core.assemblies", self.assemblies),
            ("core.accepted", self.accepted),
        ]
    }

    pub fn same_counts(&self, other: &Self) -> bool {
        self.exact() == other.exact()
    }

    pub fn to_json(self) -> Json {
        Json::object(self.exact().map(|(k, v)| (k, Json::Num(v as f64))))
    }
}

pub struct TracedPass {
    pub metrics: BTreeMap<&'static str, f64>,
    pub verdict: Verdict,
    pub counters: Counters,
    /// Human-readable notes: stated sizes, the auto cell, `n/a` reasons.
    pub notes: Vec<String>,
}

/// Sustained bandwidth of `a[i] = b[i] + s * c[i]` over three `f64` arrays,
/// in GB/s, counting the write-allocate read of `a` (4 streams).
fn triad_gbps(tracer: &mut Tracer, len: usize) -> f64 {
    let (b, c) = (vec![1.0f64; len], vec![2.0f64; len]);
    // Filled, not zero-allocated, so its pages are mapped before timing.
    let mut a = vec![0.5f64; len];
    let seconds = tracer.unit_cost(
        "machine.triad",
        || (),
        |()| {
            for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                *ai = *bi + 3.0 * *ci;
            }
            black_box(&mut a);
        },
    );
    (4 * len * std::mem::size_of::<f64>()) as f64 / seconds / 1e9
}

/// SVD of the block Hankel matrix and the reduced eigenproblem, built from a
/// solve's projected moments exactly as the extraction builds them.
fn time_hankel(tracer: &mut Tracer, spec: &Spec, moments: &[CMatrix]) -> (f64, f64) {
    let (m, b) = (spec.n_mm, spec.n_rh);
    let dim = m * b;
    let mut hankel = CMatrix::zeros(dim, dim);
    let mut shifted = CMatrix::zeros(dim, dim);
    for i in 0..m {
        for j in 0..m {
            hankel.set_block(i * b, j * b, &moments[i + j]);
            shifted.set_block(i * b, j * b, &moments[i + j + 1]);
        }
    }
    let svd_s =
        tracer.unit_cost("linalg.svd", || (), |()| drop(black_box(svd(&hankel).expect("SVD"))));
    let dec = svd(&hankel).expect("SVD");
    let rank = dec.numerical_rank(1e-10).clamp(1, dim);
    let (u1, w1) = (dec.u.take_columns(rank), dec.v.take_columns(rank));
    let mut reduced = u1.adjoint_mul(&shifted.matmul(&w1));
    for r in 0..rank {
        for c in 0..rank {
            reduced[(r, c)] *= 1.0 / dec.singular_values[c];
        }
    }
    let eig_s =
        tracer.unit_cost("linalg.eig", || (), |()| drop(black_box(eigen(&reduced).expect("eig"))));
    (svd_s, eig_s)
}

/// Max over mean of the per-node iteration totals (histories come back in
/// job order, `n_rh` consecutive entries per node).
fn node_imbalance(result: &SsResult, n_rh: usize) -> f64 {
    let per_node: Vec<f64> = result
        .solve_histories
        .chunks(n_rh)
        .map(|node| node.iter().map(|h| h.iterations() as f64).sum())
        .collect();
    let mean = per_node.iter().sum::<f64>() / per_node.len() as f64;
    measure::min_max(&per_node).1 / mean
}

/// The sweep-only measurements: checkpoint cost, and the share of an
/// auto-tuned sweep that its calibration probe takes.
fn sweep_layers(
    tracer: &mut Tracer,
    pass: &mut TracedPass,
    sweep: &EnergySweep<'_>,
    auto_sweep: &EnergySweep<'_>,
    energies: &[f64],
    out_dir: &std::path::Path,
) {
    let path = out_dir.join("sweep_checkpoint.tmp");
    let options = RunOptions { checkpoint_path: Some(&path), ..RunOptions::default() };
    sweep.run_with(energies, &SerialExecutor, options).expect("checkpointed sweep runs");
    let checkpoint = SweepCheckpoint::load(&path).expect("the checkpoint just written loads");
    let save_s = tracer.unit_cost(
        "sweep.checkpoint_save",
        || (),
        |()| checkpoint.save(&path).expect("checkpoint saves"),
    );
    pass.metrics.insert("sweep.checkpoint_save_ms", save_s * 1e3);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    pass.metrics.insert("sweep.checkpoint_bytes", bytes as f64);
    // Best effort: a leftover file is inside the ignored out directory.
    let _ = std::fs::remove_file(&path);

    let (auto_run, auto_wall) =
        tracer.span("sweep.auto", |_| auto_sweep.run(energies, &SerialExecutor));
    if let Some(decision) = &auto_run.auto {
        let probe_ns: u64 = decision.probe.iter().map(|p| p.wall_ns).sum();
        pass.metrics.insert("sweep.auto_probe_share", probe_ns as f64 * 1e-9 / auto_wall);
        pass.notes.push(format!(
            "auto committed cell: block {} precond {} slices {} (informational: the decision \
             ranks wall-clock samples)",
            decision.block.name(),
            decision.precond.name(),
            decision.slices
        ));
    }
}

/// Run the traced pass of `spec`.  `out_dir` receives the Chrome trace and
/// the sweep's scratch checkpoint.
pub fn traced_pass(
    spec: &'static Spec,
    seed: u64,
    out_dir: &std::path::Path,
) -> (TracedPass, Tracer) {
    let mut tracer = Tracer::new(spec.name);
    let t = &mut tracer;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    let mut notes = Vec::new();

    // --- Set-up layers, each rebuilt from scratch per call. ---------------
    let build_s = t.unit_cost("dft.build", || (), |()| drop(System::build_hamiltonian(spec.cell)));
    let h = System::build_hamiltonian(spec.cell);
    let pattern_s = t.unit_cost("dft.pattern", || (), |()| drop(black_box(h.qep_factored())));
    let schedule_s = t.unit_cost(
        "sparse.tri_schedule",
        || h.qep_factored().0,
        |pattern| {
            black_box(pattern.tri_schedule());
        },
    );
    m.insert("dft.build_ms", build_s * 1e3);
    m.insert("dft.pattern_ms", pattern_s * 1e3);
    m.insert("sparse.tri_schedule_ms", schedule_s * 1e3);

    // The replay needs the assembled backend on every system, whatever the
    // workload's own policy.
    let factored = System::build_factored(&h);
    let sys = System { h, factored: spec.precond.is_assembled().then(|| factored.clone()) };
    let (pattern, projector) = &factored;
    let (h00, h01) = (sys.h.h00(), sys.h.h01());
    let (n, nnz, cols) = (sys.h.dim(), pattern.nnz(), spec.n_rh);

    // --- The workload's own call, once, under a span. ---------------------
    let call = Call::prepare(spec, &sys, &h00, &h01, seed);
    if spec.warmup {
        call.run(spec.parallel);
    }
    let cpu_before = measure::cpu_seconds();
    let (output, run_wall) = t.span("run", |_| call.run(spec.parallel));
    let run_cpu = measure::cpu_seconds() - cpu_before;
    let verdict = oracle::check(spec, &sys, &output);
    let counters = Counters::of(&output);
    m.insert("trace.run_wall_s", run_wall);
    for (name, count) in counters.exact() {
        m.insert(name, count as f64);
    }
    m.insert("solver.nonconverged", verdict.nonconverged as f64);
    m.insert("solver.capped", verdict.capped as f64);
    let extractions = spec.energies.len() as f64;
    let extract_s = counters.extraction_seconds / extractions;
    m.insert("core.extract_ms", extract_s * 1e3);
    if let Output::Sweep(run) = &output {
        let s = run.stats;
        m.insert(
            "sweep.warm_iter_ratio",
            (s.warm_bicg_iterations as f64 / s.warm_started_solves.max(1) as f64)
                / (s.cold_bicg_iterations as f64 / s.cold_solves.max(1) as f64),
        );
    }

    // --- Replay of one quadrature node, layer by layer. -------------------
    let energy = spec.energies[0];
    let config = spec.ss_config(seed);
    let z = config.contour().outer_points()[0].z;
    let problem = QepProblem::new(&h00, &h01, energy, sys.h.period())
        .with_pattern(pattern)
        .with_projector(projector);
    // The run's own source block, as columns and as one column-major slab.
    let rhs: Vec<CVector> = cbs::core::source_block(n, &config);
    let x: Vec<Complex64> = rhs.iter().flat_map(|c| c.as_slice().iter().copied()).collect();
    let mut y = vec![Complex64::ZERO; n * cols];

    let assemble_s =
        t.unit_cost("sparse.assemble", || (), |()| drop(black_box(pattern.assemble(energy, z))));
    let op = pattern.assemble(energy, z);
    let factor_s = t.unit_cost("sparse.ilu0_factor", || (), |()| drop(black_box(op.ilu0())));
    let ilu = op.ilu0();
    let spmm_s = t.unit_cost("sparse.spmm", || (), |()| op.apply_block(&x, &mut y, cols));
    let spmm_adj_s =
        t.unit_cost("sparse.spmm_adj", || (), |()| op.apply_adjoint_block(&x, &mut y, cols));
    let tri_s = t.unit_cost("sparse.trisolve", || (), |()| ilu.solve_block(&x, &mut y, cols));
    let tri_adj_s =
        t.unit_cost("sparse.trisolve_adj", || (), |()| ilu.solve_adjoint_block(&x, &mut y, cols));
    let mf = problem.operator(z);
    let mf_s = t.unit_cost("sparse.mf_apply", || (), |()| mf.apply_block(&x, &mut y, cols));
    let proj_s =
        t.unit_cost("sparse.projector", || (), |()| projector.accumulate(z, &x, &mut y, cols));
    black_box(&y);

    let per_nnz_col = 1e9 / (nnz * cols) as f64;
    let mf_nnz = sys.h.nnz();
    m.insert("sparse.assemble_ns_per_nnz", assemble_s * 1e9 / nnz as f64);
    m.insert("sparse.ilu0_factor_ns_per_nnz", factor_s * 1e9 / nnz as f64);
    m.insert("sparse.spmm_ns_per_nnz_col", spmm_s * per_nnz_col);
    m.insert("sparse.spmm_adj_ns_per_nnz_col", spmm_adj_s * per_nnz_col);
    m.insert("sparse.trisolve_ns_per_nnz_col", tri_s * per_nnz_col);
    m.insert("sparse.trisolve_adj_ns_per_nnz_col", tri_adj_s * per_nnz_col);
    m.insert("sparse.mf_apply_ns_per_nnz_col", mf_s * 1e9 / (mf_nnz * cols) as f64);
    m.insert("sparse.projector_ns_per_row_col", proj_s * 1e9 / (n * cols) as f64);
    // Bytes one block apply must move, from array sizes (computed, not
    // measured: cache misses are not in it): values + column indices + row
    // pointers, the input slab read and the output slab written.
    let spmm_bytes = nnz * (16 + 8) + (n + 1) * 8 + 2 * n * cols * 16;
    m.insert("sparse.spmm_gbps_computed", spmm_bytes as f64 / spmm_s / 1e9);
    m.insert("sparse.spmm_flops_per_byte", (8 * nnz * cols) as f64 / spmm_bytes as f64);

    // The SMW policy is looked up by name, so a later PR that deletes it
    // turns these two into n/a instead of breaking the benchmark.
    match PrecondPolicy::try_from_name("assembled-ilu0-smw") {
        Some(smw) => {
            let smw_s = t.unit_cost(
                "sparse.smw_setup",
                || (),
                |()| drop(black_box(problem.node_solve(smw, z))),
            );
            m.insert("sparse.smw_setup_ms", smw_s * 1e3);
            m.insert("sparse.smw_rank", projector.rank() as f64);
        }
        None => notes.push("sparse.smw_*: n/a (no policy named assembled-ilu0-smw)".to_string()),
    }

    // One node under the workload's own policy: set-up, a fixed 50-iteration
    // budget at tolerance 0 (the cost of one full-width block iteration),
    // and the solve to tolerance.
    let node_setup_s = t.unit_cost(
        "core.node_setup",
        || (),
        |()| drop(black_box(problem.node_solve(spec.precond, z))),
    );
    let (node_op, node_prec) = problem.node_solve(spec.precond, z);
    const BUDGET: usize = 50;
    let fixed = SolverOptions { tolerance: 0.0, max_iterations: BUDGET, record_history: false };
    let node_solve = |options: &SolverOptions| {
        black_box(bicg_dual_block_precond(
            &node_op,
            node_prec.as_ref(),
            &rhs,
            &rhs,
            None,
            options,
            None,
        ));
    };
    let block_iter_s =
        t.unit_cost("solver.block_iter", || (), |()| node_solve(&fixed)) / BUDGET as f64;
    let to_tolerance = config.solver_options();
    let node_solve_s = t.unit_cost("core.node_solve", || (), |()| node_solve(&to_tolerance));
    // The library's own tracing, off against on, over the same fixed
    // budget: alternated and the minimum of each side kept, because the
    // difference is smaller than this machine's run-to-run noise.
    let calls = (0.05 / (block_iter_s * BUDGET as f64)).ceil() as usize;
    let budget_run = || measure::timed(|| (0..calls).for_each(|_| node_solve(&fixed))).1;
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    t.span("trace.overhead", |_| {
        for _ in 0..3 {
            off_s = off_s.min(budget_run());
            let session = TraceSession::begin(TraceLevel::Stage);
            on_s = on_s.min(budget_run());
            drop(session.map(TraceSession::finish));
        }
    });
    m.insert("core.node_setup_ms", node_setup_s * 1e3);
    m.insert("core.node_solve_ms", node_solve_s * 1e3);
    m.insert("solver.block_iter_us", block_iter_s * 1e6);
    m.insert("trace.overhead_frac", on_s / off_s - 1.0);

    // Per column and iteration: what the operator and preconditioner cost,
    // and what is left of the block iteration for dots, axpys and norms.
    let assembled = spec.precond.is_assembled();
    let has_tail = assembled && !projector.is_empty();
    let apply_col_s = if assembled {
        (spmm_s + spmm_adj_s + if has_tail { 2.0 * proj_s } else { 0.0 }) / cols as f64
    } else {
        2.0 * mf_s / cols as f64
    };
    let precond_col_s = if node_prec.is_some() { (tri_s + tri_adj_s) / cols as f64 } else { 0.0 };
    let iter_col_s = block_iter_s / cols as f64;
    let vecops_col_s = iter_col_s - apply_col_s - precond_col_s;
    m.insert("solver.vecops_share", vecops_col_s / iter_col_s);

    // --- Extraction's dense kernels, on real moments. ---------------------
    let probe = match output {
        Output::Solve(r) => r,
        // A sweep returns no moments: take them from one solve of its
        // first energy.
        Output::Sweep(_) => solve_qep_with(&problem, &config, &SerialExecutor),
    };
    let (svd_s, eig_s) = time_hankel(t, spec, &probe.projected_moments);
    m.insert("linalg.svd_ms", svd_s * 1e3);
    m.insert("linalg.eig_ms", eig_s * 1e3);

    // --- The machine, in the same process. --------------------------------
    // Each array is 4x the last-level cache, capped at 256 MiB so three of
    // them fit any sandbox; both sizes are reported, and no roofline ratio
    // is formed (the operators here are far smaller than 4x the cache).
    let llc = measure::last_level_cache_bytes().unwrap_or(0);
    let array_bytes = (4 * llc).clamp(32 << 20, 256 << 20) as usize;
    m.insert("machine.triad_gbps", triad_gbps(t, array_bytes / 8));
    m.insert("machine.triad_array_mib", array_bytes as f64 / (1 << 20) as f64);
    m.insert("machine.llc_mib", llc as f64 / (1 << 20) as f64);
    notes.push(format!(
        "operator arrays: assembled P(z) {:.2} MiB, ILU factors {:.2} MiB, one {cols}-column slab \
         {:.2} MiB",
        (nnz * 24 + (n + 1) * 8) as f64 / (1 << 20) as f64,
        (nnz * 16) as f64 / (1 << 20) as f64,
        (n * cols * 16) as f64 / (1 << 20) as f64,
    ));

    // --- The parallel layer. ----------------------------------------------
    let threads = measure::threads();
    m.insert("parallel.threads", threads as f64);
    let tasks = spec.n_int;
    let dispatch_s = t.unit_cost(
        "parallel.dispatch",
        || vec![(); tasks],
        |batch| drop(black_box(RayonExecutor.execute(batch, |()| ()))),
    );
    m.insert("parallel.dispatch_us_per_task", dispatch_s * 1e6 / tasks as f64);
    if !spec.is_sweep() {
        m.insert("parallel.imbalance", node_imbalance(&probe, cols));
        // Speed-up needs the same problem under the other executor; only the
        // cnt80 pair has a threaded workload to explain.
        if spec.precond == PrecondPolicy::MatrixFree {
            let (_, other_wall) = t.span("run_other_executor", |_| call.run(!spec.parallel));
            let (serial, threaded) =
                if spec.parallel { (other_wall, run_wall) } else { (run_wall, other_wall) };
            m.insert("parallel.speedup", serial / threaded);
            m.insert("parallel.efficiency", serial / threaded / threads as f64);
        }
    }

    let mut pass = TracedPass { metrics: m, verdict, counters, notes };
    if let Call::Sweep { sweep, energies } = &call {
        let auto_spec = Spec { auto: true, ..*spec };
        let Call::Sweep { sweep: auto_sweep, .. } =
            Call::prepare(&auto_spec, &sys, &h00, &h01, seed)
        else {
            unreachable!("the auto twin of a sweep is a sweep")
        };
        sweep_layers(t, &mut pass, sweep, &auto_sweep, energies, out_dir);
    }

    // --- Accounting: shares of the traced run. ----------------------------
    // Layer times are CPU seconds (count x serial unit cost), so the threaded
    // workload's shares are of its run's CPU seconds, the others' of wall.
    let col_iterations = counters.iterations as f64;
    let total = if spec.parallel { run_cpu } else { run_wall };
    let share = |seconds: f64| seconds / total;
    let mut attributed = 0.0;
    let mut put = |name: &'static str, seconds: f64| {
        attributed += share(seconds);
        pass.metrics.insert(name, share(seconds));
    };
    if assembled {
        put("sparse.spmm.share", col_iterations * (spmm_s + spmm_adj_s) / cols as f64);
        if has_tail {
            put("sparse.projector.share", col_iterations * 2.0 * proj_s / cols as f64);
        }
    } else {
        put("sparse.mf_apply.share", col_iterations * apply_col_s);
    }
    put("sparse.trisolve.share", col_iterations * precond_col_s);
    put("sparse.node_setup.share", counters.assemblies as f64 * node_setup_s);
    put("solver.vecops.share", col_iterations * vecops_col_s);
    put("core.extract.share", extractions * extract_s);
    pass.metrics.insert("layers.unattributed_frac", 1.0 - attributed);
    (pass, tracer)
}

//! Ablation benchmarks for two design choices:
//! the dual-BiCG trick (one solve serves both circles) vs independent
//! solves, and matrix-free vs explicit-CSR application of the QEP operator.
use cbs_core::QepProblem;
use cbs_dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs_linalg::{c64, CVector, Complex64};
use cbs_solver::{bicg, bicg_dual, SolverOptions};
use cbs_sparse::LinearOperator;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

fn bench_ablations(c: &mut Criterion) {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.1);
    let h = BlockHamiltonian::build(grid, &s, HamiltonianParams::default());
    let n = h.dim();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
    let v = CVector::random(n, &mut rng);
    let h00 = h.h00();
    let h01 = h.h01();
    let problem = QepProblem::new(&h00, &h01, 0.2, h.period());
    let z = c64(1.4, 1.4);
    let opts = SolverOptions { tolerance: 1e-300, max_iterations: 15, record_history: false };

    let mut group = c.benchmark_group("dual_system_trick");
    group.sample_size(10);
    group.bench_function("dual_bicg_single_sweep", |b| {
        let op = problem.operator(z);
        b.iter(|| bicg_dual(&op, &v, &v, &opts, None));
    });
    group.bench_function("two_independent_solves", |b| {
        let op_outer = problem.operator(z);
        let op_inner = problem.operator(Complex64::ONE / z.conj());
        b.iter(|| {
            let _ = bicg(&op_outer, &v, &opts);
            let _ = bicg(&op_inner, &v, &opts);
        });
    });
    group.finish();

    let mut group = c.benchmark_group("operator_representation");
    let h00_csr = h.h00_csr();
    group.bench_function("matrix_free_apply", |b| {
        let mut y = vec![Complex64::ZERO; n];
        b.iter(|| h00.apply(v.as_slice(), &mut y));
    });
    group.bench_function("merged_csr_apply", |b| {
        let mut y = vec![Complex64::ZERO; n];
        b.iter(|| h00_csr.matvec_into(v.as_slice(), &mut y));
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);

//! Criterion microbenchmarks of the hot kernels behind the paper's serial
//! performance numbers: sparse matvec (single-vector and fused block), QEP
//! application, BiCG iterations (width 1 and block), moment accumulation
//! and the Hankel post-processing.
use cbs_core::{solve_qep, QepProblem, SsConfig};
use cbs_dft::{bulk_al_100, grid_for_structure, BlockHamiltonian, HamiltonianParams};
use cbs_linalg::{c64, CVector, Complex64};
use cbs_solver::{bicg_dual, bicg_dual_block_precond, SolverOptions};
use cbs_sparse::{LinearOperator, Preconditioner};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

fn small_hamiltonian() -> BlockHamiltonian {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.1);
    BlockHamiltonian::build(grid, &s, HamiltonianParams::default())
}

fn bench_kernels(c: &mut Criterion) {
    let h = small_hamiltonian();
    let n = h.dim();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let x = CVector::random(n, &mut rng);
    let h00 = h.h00();
    let h01 = h.h01();

    c.bench_function("sparse_h00_matvec", |b| {
        let mut y = vec![Complex64::ZERO; n];
        b.iter(|| h00.apply(x.as_slice(), &mut y));
    });

    // Fused block kernels vs the per-column loop at the paper's N_rh scale.
    let nvecs = 8;
    let x_slab: Vec<Complex64> = CVector::random(n * nvecs, &mut rng).into_vec();
    let mut group = c.benchmark_group("block_matvec");
    group.bench_function("h00_block_8", |b| {
        let mut y = vec![Complex64::ZERO; n * nvecs];
        b.iter(|| h00.apply_block(&x_slab, &mut y, nvecs));
    });
    group.bench_function("h00_column_loop_8", |b| {
        // The exact path the fused kernel replaces: per-column apply writing
        // into the same n*nvecs output slab.
        let mut y = vec![Complex64::ZERO; n * nvecs];
        b.iter(|| {
            for (xc, yc) in x_slab.chunks_exact(n).zip(y.chunks_exact_mut(n)) {
                h00.apply(xc, yc);
            }
        });
    });
    group.finish();

    let problem = QepProblem::new(&h00, &h01, 0.2, h.period());
    let z = c64(1.2, 1.1);
    c.bench_function("qep_operator_apply", |b| {
        let mut y = vec![Complex64::ZERO; n];
        b.iter(|| problem.apply(z, x.as_slice(), &mut y));
    });

    c.bench_function("qep_operator_apply_block_8", |b| {
        let mut y = vec![Complex64::ZERO; n * nvecs];
        b.iter(|| problem.apply_block(z, &x_slab, &mut y, nvecs));
    });

    c.bench_function("bicg_dual_20_iterations", |b| {
        let op = problem.operator(z);
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 20, record_history: false };
        b.iter(|| bicg_dual(&op, &x, &x, &opts, None));
    });

    c.bench_function("bicg_dual_block_4rhs_20_iterations", |b| {
        let op = problem.operator(z);
        let rhs: Vec<CVector> =
            (0..4).map(|c| CVector::from_vec(x_slab[c * n..(c + 1) * n].to_vec())).collect();
        let opts = SolverOptions { tolerance: 1e-300, max_iterations: 20, record_history: false };
        b.iter(|| {
            let m = None::<&dyn Preconditioner>;
            bicg_dual_block_precond(&op, m, &rhs, &rhs, None, &opts, None)
        });
    });

    let mut group = c.benchmark_group("sakurai_sugiura");
    group.sample_size(10);
    group.bench_function("solve_qep_small", |b| {
        let config =
            SsConfig { n_int: 8, n_mm: 4, n_rh: 4, bicg_max_iterations: 400, ..SsConfig::small() };
        b.iter(|| solve_qep(&problem, &config));
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

//! `BlockHamiltonian::build` writes its real stencil row by row.  Before it
//! did, it assembled complex COO triplets (every kinetic leg axis by axis
//! over all points, then the local potential) and the projectors as
//! `LowRankOp`s, and every solve converted those with `RealStencil::try_new`.
//! That assembly is kept here as the oracle: the stencil `build` stores is
//! the converted one bit for bit — rows, projector factors, `P(z)` and its
//! adjoint, the diagonal ILU's solves and the split applies — and its block
//! views apply exactly the complex `CsrMatrix + LowRankOp` they replaced.
//!
//! The fixtures hit every way two contributions meet on one stored entry:
//! the 343-point Al(100) cell (`nx = 7 < 2·N_f + 1`: two x legs on one
//! column), a lateral axis of `N_f` points (a leg wraps onto the
//! diagonal), `nz = N_f` (z legs reach the next cell's same plane, so
//! `H₀₁` stores diagonal entries), a Hamiltonian without projectors, and
//! projectors that straddle the cell boundary (Al and the (8,0) nanotube).

use rand::SeedableRng;

use cbs_dft::pseudopotential::{channel_multiplicity, local_potential_on_grid, projector_on_grid};
use cbs_dft::{
    bulk_al_100, carbon_nanotube, grid_for_structure, Atom, AtomicStructure, BlockHamiltonian,
    Element, HamiltonianParams,
};
use cbs_grid::{CellShift, FdOrder, Grid3, KINETIC_PREFACTOR};
use cbs_linalg::{c64, CVector, Complex64};
use cbs_sparse::{
    CooBuilder, CsrMatrix, LinearOperator, LowRankOp, Preconditioner, RealStencil, StencilBlock,
};

/// The complex assembly `build` ran before it wrote the stencil itself.
fn coo_blocks(
    grid: Grid3,
    structure: &AtomicStructure,
    params: HamiltonianParams,
) -> [(CsrMatrix, LowRankOp); 2] {
    let n = grid.npoints();
    let mut b00 = CooBuilder::new(n, n);
    let mut b01 = CooBuilder::new(n, n);
    for axis in 0..3usize {
        let h = [grid.hx, grid.hy, grid.hz][axis];
        let stencil = cbs_grid::laplacian_stencil_1d(params.fd.nf, h);
        for (i, j, k, row) in grid.iter_points() {
            for &(off, w) in &stencil {
                let weight = Complex64::real(KINETIC_PREFACTOR * w);
                match axis {
                    0 => b00.push(row, grid.index(grid.wrap_x(i as isize + off), j, k), weight),
                    1 => b00.push(row, grid.index(i, grid.wrap_y(j as isize + off), k), weight),
                    _ => {
                        let (shift, kk) = grid.neighbor_z(k, off);
                        let col = grid.index(i, j, kk);
                        match shift {
                            CellShift::Same => b00.push(row, col, weight),
                            CellShift::Next => b01.push(row, col, weight),
                            CellShift::Previous => {}
                        }
                    }
                }
            }
        }
    }
    for (idx, &v) in local_potential_on_grid(&grid, &structure.atoms).iter().enumerate() {
        if v != 0.0 {
            b00.push(idx, idx, Complex64::real(v));
        }
    }
    let mut vnl00 = LowRankOp::new(n, n);
    let mut vnl01 = LowRankOp::new(n, n);
    if params.include_nonlocal {
        let lz = grid.lz();
        for atom in &structure.atoms {
            for ch in &atom.element.pseudo().channels {
                for m in 0..channel_multiplicity(ch) {
                    let p_m1 = projector_on_grid(&grid, atom, ch, m, -lz);
                    let p_0 = projector_on_grid(&grid, atom, ch, m, 0.0);
                    let p_p1 = projector_on_grid(&grid, atom, ch, m, lz);
                    let e = Complex64::real(ch.energy);
                    for p in [&p_m1, &p_0, &p_p1] {
                        if !p.is_empty() {
                            vnl00.push(p.clone(), p.clone(), e);
                        }
                    }
                    if !p_0.is_empty() && !p_m1.is_empty() {
                        vnl01.push(p_0.clone(), p_m1.clone(), e);
                    }
                    if !p_p1.is_empty() && !p_0.is_empty() {
                        vnl01.push(p_p1.clone(), p_0.clone(), e);
                    }
                }
            }
        }
    }
    [(b00.build(), vnl00), (b01.build(), vnl01)]
}

fn bits(v: Complex64) -> [u64; 2] {
    [v.re.to_bits(), v.im.to_bits()]
}

fn assert_bitwise(what: &str, got: &[Complex64], want: &[Complex64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(*g), bits(*w), "{what}: element {k}: {g:?} vs {w:?}");
    }
}

fn assert_same_csr(what: &str, got: &CsrMatrix, want: &CsrMatrix) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}: shape");
    assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row pointers");
    assert_eq!(got.col_idx(), want.col_idx(), "{what}: columns");
    assert_bitwise(what, got.values(), want.values());
}

fn assert_same_projectors(what: &str, got: &LowRankOp, want: &LowRankOp) {
    assert_eq!(got.rank(), want.rank(), "{what}: rank");
    for (t, (g, w)) in got.terms().iter().zip(want.terms()).enumerate() {
        assert_eq!(bits(g.coeff), bits(w.coeff), "{what}: term {t} coefficient");
        for (gf, wf) in [(&g.ket, &w.ket), (&g.bra, &w.bra)] {
            let (gf, wf): (Vec<_>, Vec<_>) = (gf.iter().collect(), wf.iter().collect());
            assert_eq!(gf.len(), wf.len(), "{what}: term {t} factor length");
            for ((gi, gv), (wi, wv)) in gf.into_iter().zip(wf) {
                assert_eq!((gi, bits(gv)), (wi, bits(wv)), "{what}: term {t} factor");
            }
        }
    }
}

/// `y = A x` as the complex block operator the view replaced applied it:
/// the CSR rows, then the projector terms through a scratch column.
fn complex_block_apply(
    (sparse, projectors): &(CsrMatrix, LowRankOp),
    adjoint: bool,
    x: &[Complex64],
) -> Vec<Complex64> {
    let mut y = vec![Complex64::ZERO; x.len()];
    let mut tmp = vec![Complex64::ZERO; x.len()];
    let ops: [&dyn LinearOperator; 2] = [sparse, projectors];
    for (op, out) in ops.into_iter().zip([&mut y, &mut tmp]) {
        if adjoint {
            op.apply_adjoint(x, out);
        } else {
            op.apply(x, out);
        }
    }
    if projectors.rank() > 0 {
        for (yi, ti) in y.iter_mut().zip(&tmp) {
            *yi += *ti;
        }
    }
    y
}

/// Equal as numbers (the products with the complex forms' zero imaginary
/// parts may differ in the sign of a zero, nothing else).
fn assert_same_values(what: &str, got: &[Complex64], want: &[Complex64]) {
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.re == w.re && g.im == w.im, "{what}: element {k}: {g:?} vs {w:?}");
    }
}

fn views(s: &RealStencil) -> [StencilBlock<'_>; 2] {
    [s.h00(), s.h01()]
}

/// Everything a solve reads from `built` is bitwise what it read from the
/// conversion of the COO blocks.
fn assert_built_is_converted(what: &str, structure: &AtomicStructure, grid: Grid3, nf: usize) {
    for include_nonlocal in [true, false] {
        let what = &format!("{what} nonlocal {include_nonlocal}");
        let params = HamiltonianParams { fd: FdOrder::new(nf), include_nonlocal };
        let h = BlockHamiltonian::build(grid, structure, params);
        let built = h.stencil();
        let coo = coo_blocks(grid, structure, params);
        let converted = RealStencil::try_new((&coo[0].0, &coo[0].1), (&coo[1].0, &coo[1].1))
            .expect("the COO blocks convert");
        let n = grid.npoints();
        assert_eq!(built.dim(), n, "{what}");
        assert_eq!(built.memory_bytes(), converted.memory_bytes(), "{what}: bytes");
        assert_eq!(built.nnz(), converted.nnz(), "{what}: entries");

        // The stored rows and projector factors.
        for (b, (view, old)) in views(built).iter().zip(&coo).enumerate() {
            assert_same_csr(&format!("{what} block {b} rows"), &view.sparse_csr(), &old.0);
            assert_same_projectors(&format!("{what} block {b} terms"), &view.projectors(), &old.1);
        }
        if include_nonlocal {
            assert!(coo[0].1.rank() > 0, "{what}: the fixture has projectors");
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(n as u64);
        let nvecs = 9;
        let x = CVector::random(n * nvecs, &mut rng).into_vec();
        let run = |f: &dyn Fn(&mut [Complex64])| {
            let mut y = vec![c64(f64::NAN, f64::NAN); n * nvecs];
            f(&mut y);
            y
        };

        // The block views: their own applies agree bitwise, and they are the
        // complex operators they replaced, value for value.
        let x1 = &x[..n];
        for (b, (view, old)) in views(built).iter().zip(&coo).enumerate() {
            let twin = views(&converted)[b];
            for adjoint in [false, true] {
                let apply = |op: &dyn LinearOperator| {
                    let mut y = vec![Complex64::ZERO; n];
                    if adjoint {
                        op.apply_adjoint(x1, &mut y);
                    } else {
                        op.apply(x1, &mut y);
                    }
                    y
                };
                let tag = format!("{what} block {b} adjoint {adjoint}");
                assert_bitwise(&tag, &apply(view), &apply(&twin));
                assert_same_values(&tag, &apply(view), &complex_block_apply(old, adjoint, x1));
            }
        }

        let energy = -0.13;
        for z in [c64(0.42, 0.31), c64(-0.7, 1.1)] {
            let tag = format!("{what} z {z:?}");
            // P(z) and its adjoint P(1/z̄).
            for shift in [z, Complex64::ONE / z.conj()] {
                let apply = |s: &RealStencil| run(&|y| s.apply_block(energy, shift, &x, y, nvecs));
                assert_bitwise(
                    &format!("{tag} apply at {shift:?}"),
                    &apply(built),
                    &apply(&converted),
                );
            }
            // The diagonal ILU's solves and the split system.
            let (m, m_ref) = (built.dilu(energy, z), converted.dilu(energy, z));
            let solves = |m: &dyn Preconditioner| {
                [
                    run(&|y| m.solve_block(&x, y, nvecs)),
                    run(&|y| m.solve_adjoint_block(&x, y, nvecs)),
                ]
            };
            for (side, (g, w)) in solves(&m).iter().zip(&solves(&m_ref)).enumerate() {
                assert_bitwise(&format!("{tag} dilu side {side}"), g, w);
            }
            let (split, split_ref) = (m.split(), m_ref.split());
            assert_bitwise(
                &format!("{tag} split apply"),
                &run(&|y| split.apply_block(&x, y, nvecs)),
                &run(&|y| split_ref.apply_block(&x, y, nvecs)),
            );
            assert_bitwise(
                &format!("{tag} split adjoint"),
                &run(&|y| split.apply_adjoint_block(&x, y, nvecs)),
                &run(&|y| split_ref.apply_adjoint_block(&x, y, nvecs)),
            );
            for dual in [false, true] {
                let maps = |m: &cbs_sparse::StencilDilu<'_>| {
                    let (mut b, mut u) = (x.clone(), x.clone());
                    m.split_rhs(dual, &mut b, nvecs);
                    m.unsplit(dual, &mut u, nvecs);
                    [b, u]
                };
                for (g, w) in maps(&m).iter().zip(&maps(&m_ref)) {
                    assert_bitwise(&format!("{tag} split maps dual {dual}"), g, w);
                }
            }
        }
    }
}

/// Two carbon atoms in a 3 × 3 bohr cross-section.
fn carbon_pair(period: f64) -> AtomicStructure {
    AtomicStructure {
        name: "carbon pair".into(),
        atoms: vec![
            Atom::new(Element::C, [1.5, 1.5, 0.3 * period]),
            Atom::new(Element::C, [1.2, 1.7, 0.75 * period]),
        ],
        lateral: (3.0, 3.0),
        period,
    }
}

#[test]
fn al100_343_points_two_legs_on_one_column() {
    let s = bulk_al_100(1);
    let grid = grid_for_structure(&s, 1.1);
    assert_eq!((grid.nx, grid.npoints()), (7, 343));
    assert_built_is_converted("al100", &s, grid, 4);
    let h = BlockHamiltonian::build(grid, &s, HamiltonianParams::default());
    assert!(h.h01().projectors().rank() > 0, "projectors straddle the boundary");
}

#[test]
fn lateral_axis_of_n_f_points_wraps_a_leg_onto_the_diagonal() {
    // nx = N_f = 4: the ±4 x legs land on the row's own column.
    let grid = Grid3::new(4, 6, 9, 0.75, 0.5, 0.4);
    assert_built_is_converted("nx = N_f", &carbon_pair(3.6), grid, 4);
}

#[test]
fn nz_of_n_f_planes_puts_diagonal_entries_in_h01() {
    // nz = N_f = 2: the +2 z leg of plane k is plane k of the next cell.
    let grid = Grid3::new(6, 6, 2, 0.5, 0.5, 1.8);
    assert_built_is_converted("nz = N_f", &carbon_pair(3.6), grid, 2);
    let h = BlockHamiltonian::build(
        grid,
        &carbon_pair(3.6),
        HamiltonianParams { fd: FdOrder::new(2), include_nonlocal: false },
    );
    let h01 = h.h01().sparse_csr();
    assert!((0..h.dim()).all(|i| h01.get(i, i) != Complex64::ZERO), "H₀₁ stores its diagonal");
}

#[test]
fn cnt80_straddling_projectors() {
    let s = carbon_nanotube(8, 0, 5.0);
    let grid = grid_for_structure(&s, 1.15);
    assert_eq!(grid.npoints(), 2527, "the benchmark's cnt80 cell");
    assert_built_is_converted("cnt80", &s, grid, 4);
}

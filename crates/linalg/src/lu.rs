//! LU factorization with partial pivoting for dense complex matrices, plus
//! the derived solve / inverse / determinant operations.
//!
//! Used by the generalized eigensolver (shift-invert reduction) and by small
//! dense solves inside the Sakurai-Sugiura post-processing.  Matrices on this
//! path are at most a few thousand rows, so the classical right-looking
//! algorithm is adequate.

use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::vector::CVector;
use crate::LinalgError;

/// LU factorization `P A = L U` of a square complex matrix.
#[derive(Clone, Debug)]
pub struct LuDecomposition {
    /// Packed factors: strictly-lower part stores `L` (unit diagonal
    /// implicit), upper triangle stores `U`.
    lu: CMatrix,
    /// Row permutation: row `i` of the factored matrix came from row
    /// `perm[i]` of the original.
    perm: Vec<usize>,
    /// Sign of the permutation (+1/-1), needed for the determinant.
    perm_sign: f64,
    /// Dimension.
    n: usize,
}

impl LuDecomposition {
    /// Factor a square matrix.  Fails on dimension mismatch or exact
    /// singularity (zero pivot).
    pub fn new(a: &CMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest |a_ik| for i >= k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == Complex64::ZERO {
                    continue;
                }
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= m * ukj;
                }
            }
        }
        Ok(Self { lu, perm, perm_sign, n })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve(&self, b: &CVector) -> CVector {
        assert_eq!(b.len(), self.n, "solve: rhs length mismatch");
        let mut x = CVector::zeros(self.n);
        // Apply permutation and forward-substitute L y = P b.
        for i in 0..self.n {
            let mut acc = b[self.perm[i]];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back-substitute U x = y.
        for i in (0..self.n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..self.n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        x
    }

    /// Solve `A X = B` for a block of right-hand sides (column-wise).
    pub fn solve_matrix(&self, b: &CMatrix) -> CMatrix {
        assert_eq!(b.nrows(), self.n, "solve_matrix: rhs rows mismatch");
        let mut out = CMatrix::zeros(self.n, b.ncols());
        for j in 0..b.ncols() {
            let col = self.solve(&b.column(j));
            out.set_column(j, &col);
        }
        out
    }

    /// Explicit inverse (prefer `solve` when possible).
    pub fn inverse(&self) -> CMatrix {
        self.solve_matrix(&CMatrix::identity(self.n))
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> Complex64 {
        let mut det = Complex64::real(self.perm_sign);
        for i in 0..self.n {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Crude reciprocal-condition estimate from the pivot magnitudes:
    /// `min|u_ii| / max|u_ii|`.  Cheap and adequate for diagnostics.
    pub fn rcond_estimate(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for i in 0..self.n {
            let p = self.lu[(i, i)].abs();
            lo = lo.min(p);
            hi = hi.max(p);
        }
        if hi == 0.0 {
            0.0
        } else {
            lo / hi
        }
    }
}

/// Convenience wrapper: solve `A x = b` once.
pub fn solve(a: &CMatrix, b: &CVector) -> Result<CVector, LinalgError> {
    Ok(LuDecomposition::new(a)?.solve(b))
}

/// Convenience wrapper: compute the inverse of `A`.
pub fn inverse(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    Ok(LuDecomposition::new(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::SeedableRng;

    fn random_matrix(n: usize, seed: u64) -> CMatrix {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        CMatrix::random(n, n, &mut rng)
    }

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let a = CMatrix::random(12, 12, &mut rng);
        let x_true = CVector::random(12, &mut rng);
        let b = a.matvec(&x_true);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b);
        let err = (&x - &x_true).norm() / x_true.norm();
        assert!(err < 1e-10, "relative error {err}");
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = random_matrix(8, 13);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        let defect = (&prod - &CMatrix::identity(8)).fro_norm();
        assert!(defect < 1e-10, "defect {defect}");
    }

    #[test]
    fn determinant_of_triangular_matrix() {
        let mut a = CMatrix::identity(3);
        a[(0, 0)] = c64(2.0, 0.0);
        a[(1, 1)] = c64(0.0, 1.0);
        a[(2, 2)] = c64(3.0, 0.0);
        a[(0, 2)] = c64(5.0, -1.0); // upper entry does not change det
        let det = LuDecomposition::new(&a).unwrap().determinant();
        assert!((det - c64(0.0, 6.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_changes_sign_under_row_swap() {
        let a = CMatrix::from_rows(&[
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
            vec![c64(1.0, 0.0), c64(0.0, 0.0)],
        ]);
        let det = LuDecomposition::new(&a).unwrap().determinant();
        assert!((det - c64(-1.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = CMatrix::zeros(4, 4);
        assert!(matches!(LuDecomposition::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CMatrix::zeros(3, 4);
        assert!(matches!(LuDecomposition::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn block_solve_matches_column_solves() {
        let a = random_matrix(6, 14);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        let b = CMatrix::random(6, 3, &mut rng);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve_matrix(&b);
        for j in 0..3 {
            let xj = lu.solve(&b.column(j));
            assert!((&x.column(j) - &xj).norm() < 1e-12);
        }
    }
}

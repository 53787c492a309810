//! Small column-major dense matrices.
//!
//! These serve two roles: the reference implementation that every sparse
//! kernel is tested against, and the panel storage of the supernodal
//! baseline (which, like SuperLU_DIST, computes on dense blocks).

use std::ops::{Index, IndexMut};

/// A column-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a column-major data vector.
    pub fn from_column_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length must be nrows*ncols");
        DenseMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The underlying column-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Dense matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, rhs.nrows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.nrows, rhs.ncols);
        // jki loop order: column-major friendly.
        for j in 0..rhs.ncols {
            for k in 0..self.ncols {
                let b = rhs[(k, j)];
                if b == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let out_col = out.col_mut(j);
                for i in 0..self.nrows {
                    out_col[i] += a_col[i] * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (i, a) in self.col(j).iter().enumerate() {
                y[i] += a * xj;
            }
        }
        y
    }

    /// In-place unpivoted LU factorisation: on return the strict lower part
    /// holds L (unit diagonal implied) and the upper part holds U.
    ///
    /// Returns `Err(k)` if pivot `k` is exactly zero. This mirrors the
    /// static-pivoting convention of the sparse solver: stability is the
    /// job of the MC64 pre-permutation, not of this kernel.
    pub fn lu_in_place(&mut self) -> Result<(), usize> {
        assert_eq!(self.nrows, self.ncols, "LU requires a square matrix");
        let n = self.nrows;
        for k in 0..n {
            let pivot = self[(k, k)];
            if pivot == 0.0 {
                return Err(k);
            }
            for i in k + 1..n {
                let l = self[(i, k)] / pivot;
                self[(i, k)] = l;
                if l == 0.0 {
                    continue;
                }
                for j in k + 1..n {
                    let u = self[(k, j)];
                    if u != 0.0 {
                        self[(i, j)] -= l * u;
                    }
                }
            }
        }
        Ok(())
    }

    /// Extracts `(L, U)` from a packed in-place LU factor.
    pub fn split_lu(&self) -> (DenseMatrix, DenseMatrix) {
        let n = self.nrows;
        let mut l = DenseMatrix::identity(n);
        let mut u = DenseMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = self[(i, j)];
                } else {
                    u[(i, j)] = self[(i, j)];
                }
            }
        }
        (l, u)
    }

    /// Solves `L x = b` where the strict lower part of `self` is L with
    /// implied unit diagonal (forward substitution).
    pub fn solve_unit_lower(&self, b: &mut [f64]) {
        let n = self.nrows;
        assert_eq!(b.len(), n);
        for j in 0..n {
            let xj = b[j];
            if xj == 0.0 {
                continue;
            }
            for i in j + 1..n {
                b[i] -= self[(i, j)] * xj;
            }
        }
    }

    /// Solves `U x = b` where the upper part of `self` is U (backward
    /// substitution).
    pub fn solve_upper(&self, b: &mut [f64]) {
        let n = self.nrows;
        assert_eq!(b.len(), n);
        for j in (0..n).rev() {
            b[j] /= self[(j, j)];
            let xj = b[j];
            if xj == 0.0 {
                continue;
            }
            for i in 0..j {
                b[i] -= self[(i, j)] * xj;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Max absolute difference against `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data.iter().zip(other.data.iter()).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = DenseMatrix::from_column_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_column_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn lu_reconstructs_matrix() {
        let mut a =
            DenseMatrix::from_column_major(3, 3, vec![4.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 6.0]);
        let orig = a.clone();
        a.lu_in_place().unwrap();
        let (l, u) = a.split_lu();
        let prod = l.matmul(&u);
        assert!(prod.max_abs_diff(&orig) < 1e-12);
    }

    #[test]
    fn lu_detects_zero_pivot() {
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        assert_eq!(a.lu_in_place(), Err(0));
    }

    #[test]
    fn triangular_solves_invert_lu() {
        let mut a =
            DenseMatrix::from_column_major(3, 3, vec![4.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 6.0]);
        let orig = a.clone();
        a.lu_in_place().unwrap();
        let x_true = vec![1.0, -2.0, 3.0];
        let mut b = orig.matvec(&x_true);
        a.solve_unit_lower(&mut b);
        a.solve_upper(&mut b);
        for (xi, ti) in b.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = DenseMatrix::from_column_major(2, 3, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let x = vec![1.0, 1.0, 1.0];
        assert_eq!(a.matvec(&x), vec![6.0, 15.0]);
    }
}

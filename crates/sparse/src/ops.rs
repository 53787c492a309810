//! Pattern and value operations used across the solver stack.

use crate::{CscMatrix, Result, SparseError};

/// Sparse matrix-vector product `y = A x`.
pub fn spmv(a: &CscMatrix, x: &[f64]) -> Result<Vec<f64>> {
    if x.len() != a.ncols() {
        return Err(SparseError::DimensionMismatch(format!(
            "spmv: x has length {}, matrix has {} columns",
            x.len(),
            a.ncols()
        )));
    }
    let mut y = vec![0.0; a.nrows()];
    for (j, &xj) in x.iter().enumerate() {
        if xj == 0.0 {
            continue;
        }
        let (rows, vals) = a.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            y[r] += v * xj;
        }
    }
    Ok(y)
}

/// Sparse transposed matrix-vector product `y = A^T x`.
pub fn spmv_t(a: &CscMatrix, x: &[f64]) -> Result<Vec<f64>> {
    if x.len() != a.nrows() {
        return Err(SparseError::DimensionMismatch(format!(
            "spmv_t: x has length {}, matrix has {} rows",
            x.len(),
            a.nrows()
        )));
    }
    let mut y = vec![0.0; a.ncols()];
    for (j, yj) in y.iter_mut().enumerate() {
        let (rows, vals) = a.col(j);
        let mut acc = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            acc += v * x[r];
        }
        *yj = acc;
    }
    Ok(y)
}

/// Pattern union `A | A^T` with values `A + A^T` (square matrices).
///
/// The symbolic phase works on this symmetrised matrix (paper §5.2:
/// "PanguLU symmetrises the matrix and uses symmetric pruning").
pub fn symmetrize(a: &CscMatrix) -> Result<CscMatrix> {
    if !a.is_square() {
        return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    let at = a.transpose();
    add_patterns(a, &at)
}

/// Entry-wise sum of two same-shaped matrices (pattern union).
pub fn add_patterns(a: &CscMatrix, b: &CscMatrix) -> Result<CscMatrix> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::DimensionMismatch(format!(
            "add: {}x{} vs {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    let n = a.ncols();
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0usize);
    let mut row_idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for j in 0..n {
        let (ra, va) = a.col(j);
        let (rb, vb) = b.col(j);
        let (mut ia, mut ib) = (0usize, 0usize);
        // Two-pointer merge of the sorted row lists.
        while ia < ra.len() || ib < rb.len() {
            let next_a = ra.get(ia).copied().unwrap_or(usize::MAX);
            let next_b = rb.get(ib).copied().unwrap_or(usize::MAX);
            if next_a < next_b {
                row_idx.push(next_a);
                values.push(va[ia]);
                ia += 1;
            } else if next_b < next_a {
                row_idx.push(next_b);
                values.push(vb[ib]);
                ib += 1;
            } else {
                row_idx.push(next_a);
                values.push(va[ia] + vb[ib]);
                ia += 1;
                ib += 1;
            }
        }
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(a.nrows(), n, col_ptr, row_idx, values))
}

/// Ensures every diagonal entry of a square matrix is structurally present,
/// inserting explicit zeros where missing. LU with static pivoting needs a
/// structurally full diagonal.
pub fn ensure_diagonal(a: &CscMatrix) -> Result<CscMatrix> {
    if !a.is_square() {
        return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    let n = a.ncols();
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0usize);
    let mut row_idx = Vec::with_capacity(a.nnz() + n);
    let mut values = Vec::with_capacity(a.nnz() + n);
    for j in 0..n {
        let (rows, vals) = a.col(j);
        let mut inserted = false;
        for (&r, &v) in rows.iter().zip(vals) {
            if !inserted && r > j {
                row_idx.push(j);
                values.push(0.0);
                inserted = true;
            }
            if r == j {
                inserted = true;
            }
            row_idx.push(r);
            values.push(v);
        }
        if !inserted {
            row_idx.push(j);
            values.push(0.0);
        }
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(n, n, col_ptr, row_idx, values))
}

/// Relative residual `||A x - b||_2 / ||b||_2` (0/0 reported as 0).
pub fn relative_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> Result<f64> {
    let ax = spmv(a, x)?;
    if ax.len() != b.len() {
        return Err(SparseError::DimensionMismatch("residual: b length".into()));
    }
    let num = ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
    let den = b.iter().map(|q| q * q).sum::<f64>().sqrt();
    Ok(if den == 0.0 { num } else { num / den })
}

/// Count of structurally symmetric entries over all off-diagonal entries,
/// in [0, 1]; 1.0 for a structurally symmetric matrix. Used by generators
/// and the symbolic statistics.
pub fn structural_symmetry(a: &CscMatrix) -> f64 {
    if !a.is_square() {
        return 0.0;
    }
    let mut off = 0usize;
    let mut matched = 0usize;
    for (r, c, _) in a.iter() {
        if r == c {
            continue;
        }
        off += 1;
        if a.find(c, r).is_some() {
            matched += 1;
        }
    }
    if off == 0 {
        1.0
    } else {
        matched as f64 / off as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        CscMatrix::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![4.0, 2.0, 3.0, 1.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = spmv(&a, &x).unwrap();
        assert_eq!(y, a.to_dense().matvec(&x));
    }

    #[test]
    fn spmv_t_matches_transpose() {
        let a = sample();
        let x = vec![1.0, -1.0, 0.5];
        let y1 = spmv_t(&a, &x).unwrap();
        let y2 = spmv(&a.transpose(), &x).unwrap();
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-15);
        }
    }

    #[test]
    fn symmetrize_is_symmetric() {
        let a = sample();
        let s = symmetrize(&a).unwrap();
        assert!((structural_symmetry(&s) - 1.0).abs() < 1e-15);
        assert_eq!(s.get(0, 2), s.get(2, 0));
        assert_eq!(s.get(0, 2), 2.0 + 1.0);
    }

    #[test]
    fn ensure_diagonal_inserts_missing() {
        let a = CscMatrix::from_parts(3, 3, vec![0, 1, 1, 2], vec![1, 0], vec![1.0, 1.0]).unwrap();
        let d = ensure_diagonal(&a).unwrap();
        assert!(d.has_full_diagonal());
        assert_eq!(d.get(1, 0), 1.0);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.nnz(), 5);
        d.validate().unwrap();
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let a = CscMatrix::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let r = relative_residual(&a, &x, &x).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn add_patterns_merges() {
        let a = sample();
        let b = CscMatrix::identity(3);
        let s = add_patterns(&a, &b).unwrap();
        assert_eq!(s.get(0, 0), 5.0);
        assert_eq!(s.get(1, 1), 4.0);
        assert_eq!(s.get(2, 0), 2.0);
        s.validate().unwrap();
    }
}

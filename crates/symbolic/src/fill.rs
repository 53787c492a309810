//! Symmetric-pruned fill computation — PanguLU's symbolic factorisation.
//!
//! Computes the exact Cholesky fill pattern of `pattern(A + Aᵀ)` in
//! O(nnz(L)) time using the elimination tree and the classic row-subtree
//! walk: the pattern of row `i` of `L` consists of the vertices on the
//! etree paths from each `k` with `A_sym(i, k) ≠ 0, k < i` up towards `i`
//! (stopping at already-visited vertices). The L pattern is returned by
//! columns; `U = Lᵀ` structurally.

use crate::etree::EliminationTree;
use pangulu_sparse::ops::{ensure_diagonal, symmetrize};
use pangulu_sparse::{CscMatrix, Result, SparseError};

/// The symbolic factorisation result: the strict-lower fill pattern of L
/// (columns), the elimination tree, and summary statistics. `U`'s pattern
/// is the transpose of `L`'s.
#[derive(Debug, Clone)]
pub struct FilledPattern {
    /// Matrix order.
    pub n: usize,
    /// Column pointers of the strict lower pattern of `L` (length `n+1`).
    pub l_col_ptr: Vec<usize>,
    /// Row indices of the strict lower pattern of `L`, sorted per column.
    pub l_row_idx: Vec<usize>,
    /// The elimination tree of the symmetrised pattern.
    pub etree: EliminationTree,
}

impl FilledPattern {
    /// Number of stored entries in `L + U` including the diagonal
    /// (`2 * nnz(strict lower) + n`).
    pub fn nnz_lu(&self) -> usize {
        2 * self.l_row_idx.len() + self.n
    }

    /// Strict-lower entries of column `j` of `L`.
    pub fn l_col(&self, j: usize) -> &[usize] {
        &self.l_row_idx[self.l_col_ptr[j]..self.l_col_ptr[j + 1]]
    }

    /// Builds the full `L+U` pattern (diagonal included) as a CSC matrix
    /// whose values hold the entries of `a` where `a` has them and explicit
    /// zeros at fill positions: the global scalar image of what the
    /// blocking stage tiles. The solver tiles straight from the pattern
    /// and never builds it (`BlockMatrix::from_fill` in `pangulu-core`);
    /// it is the reference that tiling is checked against.
    pub fn filled_matrix(&self, a: &CscMatrix) -> Result<CscMatrix> {
        let n = self.n;
        debug_assert_eq!(a.ncols(), n);
        // Column j of L+U = (upper part = transpose rows of L, i.e. the
        // strict lower entries (j, k) of columns k < j with row index j)
        // ∪ {diagonal} ∪ (strict lower col j).
        // Build the upper part per column by bucketing the transposed
        // lower pattern.
        let mut upper_counts = vec![0usize; n + 1];
        for j in 0..n {
            for &i in self.l_col(j) {
                // L(i, j) with i > j mirrors to U(j, i): column i gains row j.
                upper_counts[i + 1] += 1;
            }
        }
        for j in 0..n {
            upper_counts[j + 1] += upper_counts[j];
        }
        let mut upper_rows = vec![0usize; upper_counts[n]];
        let mut next = upper_counts.clone();
        for j in 0..n {
            // Iterating columns ascending writes each upper column's rows
            // in ascending order automatically.
            for &i in self.l_col(j) {
                upper_rows[next[i]] = j;
                next[i] += 1;
            }
        }

        let total = self.nnz_lu();
        let mut col_ptr = Vec::with_capacity(n + 1);
        col_ptr.push(0usize);
        let mut row_idx = Vec::with_capacity(total);
        for j in 0..n {
            // Upper rows (all < j), then diagonal, then strict lower.
            row_idx.extend_from_slice(&upper_rows[upper_counts[j]..upper_counts[j + 1]]);
            row_idx.push(j);
            row_idx.extend_from_slice(self.l_col(j));
            col_ptr.push(row_idx.len());
        }
        let mut filled = CscMatrix::from_parts(n, n, col_ptr, row_idx, vec![0.0; total])?;
        // Scatter the numeric values of `a` into the pattern.
        for j in 0..n {
            let (rows, vals) = a.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                let pos = filled.find(i, j).ok_or_else(|| {
                    SparseError::InvalidStructure(format!(
                        "entry ({i}, {j}) is outside the fill pattern"
                    ))
                })?;
                filled.values_mut()[pos] = v;
            }
        }
        Ok(filled)
    }
}

/// Runs PanguLU's symbolic factorisation on a (reordered) square matrix:
/// symmetrise the pattern, ensure a full diagonal, compute the elimination
/// tree and the exact fill pattern.
///
/// # Examples
/// ```
/// // A tridiagonal matrix fills nothing; an arrow matrix pointing
/// // down-right fills completely.
/// let tri = pangulu_sparse::gen::tridiagonal(8);
/// let fill = pangulu_symbolic::symbolic_fill(&tri).unwrap();
/// assert_eq!(fill.nnz_lu(), tri.nnz());
/// ```
pub fn symbolic_fill(a: &CscMatrix) -> Result<FilledPattern> {
    let sym = ensure_diagonal(&symmetrize(a)?)?;
    symbolic_fill_symmetric(&sym)
}

/// As [`symbolic_fill`] but for an already-symmetric pattern with a full
/// diagonal.
pub fn symbolic_fill_symmetric(sym: &CscMatrix) -> Result<FilledPattern> {
    let n = sym.ncols();
    let etree = EliminationTree::from_symmetric_pattern(sym)?;

    // Row-subtree walk producing the pattern of L by rows; we bucket the
    // (row i, col j) pairs into columns afterwards.
    let mut mark = vec![usize::MAX; n];
    let mut pairs_col: Vec<usize> = Vec::new();
    let mut pairs_row: Vec<usize> = Vec::new();
    for i in 0..n {
        mark[i] = i;
        let (rows, _) = sym.col(i);
        for &k in rows {
            if k >= i {
                break;
            }
            let mut j = k;
            while mark[j] != i {
                mark[j] = i;
                pairs_col.push(j);
                pairs_row.push(i);
                j = etree.parent(j);
                debug_assert!(j != crate::etree::NO_PARENT, "walk must reach row {i}");
            }
        }
    }

    // Bucket into columns; rows ascending because we visited i ascending.
    let mut l_col_ptr = vec![0usize; n + 1];
    for &c in &pairs_col {
        l_col_ptr[c + 1] += 1;
    }
    for j in 0..n {
        l_col_ptr[j + 1] += l_col_ptr[j];
    }
    let mut l_row_idx = vec![0usize; pairs_col.len()];
    let mut next = l_col_ptr.clone();
    for (idx, &c) in pairs_col.iter().enumerate() {
        l_row_idx[next[c]] = pairs_row[idx];
        next[c] += 1;
    }
    // Each column's rows arrive in increasing i (outer loop order): sorted.
    Ok(FilledPattern { n, l_col_ptr, l_row_idx, etree })
}

/// Verifies that a pattern is transitively closed under the LU elimination
/// rule: for all `k < min(i, j)`, if `(i, k)` and `(k, j)` are in the
/// pattern then so is `(i, j)`. The numeric phase's "no extra fill-ins"
/// guarantee rests on this; tests call it on every symbolic result.
pub fn is_elimination_closed(filled: &CscMatrix) -> bool {
    let n = filled.ncols();
    let csr = filled.to_csr();
    for k in 0..n {
        // Rows i with (i,k) present, i > k; columns j with (k,j), j > k.
        let (col_rows, _) = filled.col(k);
        let (row_cols, _) = csr.row(k);
        for &i in col_rows.iter().filter(|&&i| i > k) {
            for &j in row_cols.iter().filter(|&&j| j > k) {
                if filled.find(i, j).is_none() {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;

    /// Dense brute-force Cholesky fill of the symmetrised pattern.
    fn brute_fill(a: &CscMatrix) -> Vec<Vec<bool>> {
        let n = a.ncols();
        let mut pat = vec![vec![false; n]; n];
        for (r, c, _) in a.iter() {
            pat[r][c] = true;
            pat[c][r] = true;
        }
        for (i, row) in pat.iter_mut().enumerate() {
            row[i] = true;
        }
        for k in 0..n {
            let below: Vec<usize> = (k + 1..n).filter(|&i| pat[i][k]).collect();
            for &i in &below {
                for &j in &below {
                    pat[i][j] = true;
                }
            }
        }
        pat
    }

    #[test]
    fn fill_matches_brute_force() {
        for seed in 0..4 {
            let a = gen::random_sparse(22, 0.1, seed);
            let f = symbolic_fill(&a).unwrap();
            let brute = brute_fill(&a);
            #[allow(clippy::needless_range_loop)] // index loops read clearest here
            for j in 0..22 {
                let col: Vec<usize> = (j + 1..22).filter(|&i| brute[i][j]).collect();
                assert_eq!(f.l_col(j), col.as_slice(), "column {j}, seed {seed}");
            }
        }
    }

    #[test]
    fn filled_matrix_contains_a_and_is_closed() {
        let a = gen::circuit(120, 9);
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        filled.validate().unwrap();
        assert!(filled.has_full_diagonal());
        // Every original entry kept with its value.
        for (r, c, v) in a.iter() {
            assert_eq!(filled.get(r, c), v);
        }
        assert!(is_elimination_closed(&filled), "pattern not closed");
        assert_eq!(filled.nnz(), f.nnz_lu());
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        let n = 10;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let f = symbolic_fill(&a).unwrap();
        assert_eq!(f.nnz_lu(), a.nnz());
    }

    #[test]
    fn arrow_matrix_fill_depends_on_orientation() {
        // Arrow pointing down-right (dense first row/col): full fill.
        let n = 8;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, 0, 1.0).unwrap();
                coo.push(0, i, 1.0).unwrap();
            }
        }
        let f = symbolic_fill(&coo.to_csc()).unwrap();
        // Eliminating vertex 0 connects everything: complete lower triangle.
        assert_eq!(f.l_row_idx.len(), n * (n - 1) / 2);

        // Arrow pointing up-left (dense last row/col): no fill.
        let mut coo2 = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo2.push(i, i, 2.0).unwrap();
            if i < n - 1 {
                coo2.push(i, n - 1, 1.0).unwrap();
                coo2.push(n - 1, i, 1.0).unwrap();
            }
        }
        let f2 = symbolic_fill(&coo2.to_csc()).unwrap();
        assert_eq!(f2.l_row_idx.len(), n - 1);
    }

    #[test]
    fn laplacian_fill_is_closed() {
        let a = gen::laplacian_2d(9, 9);
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        assert!(is_elimination_closed(&filled));
    }
}

//! Symmetric-pruned fill computation — PanguLU's symbolic factorisation.
//!
//! Computes the exact Cholesky fill pattern of `pattern(A + Aᵀ)` in
//! O(nnz(L)) time using the elimination tree and the classic row-subtree
//! walk: the pattern of row `i` of `L` consists of the vertices on the
//! etree paths from each `k` with `A(i, k) ≠ 0` or `A(k, i) ≠ 0`, `k < i`,
//! up towards `i` (stopping at already-visited vertices). `A + Aᵀ` is
//! never built: `A`'s column `i` gives one half of row `i`'s neighbours
//! and a pattern-only transpose of its strict lower part the other. The
//! L pattern is returned by columns; `U = Lᵀ` structurally.

use crate::etree::{link, row_subtree, EliminationTree, NO_PARENT};
use pangulu_sparse::{CscMatrix, Result, SparseError};

/// The symbolic factorisation result: the strict-lower fill pattern of L
/// (columns), the elimination tree, and summary statistics. `U`'s pattern
/// is the transpose of `L`'s.
#[derive(Debug, Clone)]
pub struct FilledPattern {
    /// Matrix order.
    pub n: usize,
    /// Column pointers of the strict lower pattern of `L` (length `n+1`).
    /// `usize`, because `nnz(L)` may pass `u32::MAX`.
    pub l_col_ptr: Vec<usize>,
    /// Row indices of the strict lower pattern of `L`, sorted per column.
    /// `u32`: [`symbolic_fill`] refuses an order above `u32::MAX`.
    pub l_row_idx: Vec<u32>,
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
    pub fn l_col(&self, j: usize) -> &[u32] {
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
                upper_counts[i as usize + 1] += 1;
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
                let i = i as usize;
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
            row_idx.extend(self.l_col(j).iter().map(|&i| i as usize));
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

/// Checks that a matrix of order `n` fits a [`FilledPattern`], whose row
/// indices are `u32`: an order above `u32::MAX` is
/// [`SparseError::OrderTooLarge`].
pub(crate) fn check_order(n: usize) -> Result<()> {
    let max = u32::MAX as usize;
    if n > max {
        return Err(SparseError::OrderTooLarge { n, max });
    }
    Ok(())
}

/// Runs PanguLU's symbolic factorisation on a (reordered) square matrix:
/// the elimination tree and the exact fill pattern of `pattern(A + Aᵀ)`
/// with a full diagonal. Two walks over the rows: the first extends the
/// elimination tree row by row (Liu's algorithm) and counts each column
/// of `L`, the second writes every row straight into its column, so the
/// pattern is allocated once, at its exact size. Besides it, the walks
/// hold only arrays of length `n` and the transpose of `A`'s strict
/// lower pattern. A non-square matrix is [`SparseError::NotSquare`], an
/// order above `u32::MAX` [`SparseError::OrderTooLarge`], both before
/// anything is allocated.
///
/// # Examples
/// ```
/// # fn main() -> pangulu_sparse::Result<()> {
/// // A tridiagonal matrix fills nothing; an arrow matrix pointing
/// // down-right fills completely.
/// let tri = pangulu_sparse::gen::tridiagonal(8);
/// let fill = pangulu_symbolic::symbolic_fill(&tri)?;
/// assert_eq!(fill.nnz_lu(), tri.nnz());
/// # Ok(())
/// # }
/// ```
pub fn symbolic_fill(a: &CscMatrix) -> Result<FilledPattern> {
    if !a.is_square() {
        return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    let n = a.ncols();
    check_order(n)?;
    // Row i's neighbours k < i: A(k, i) from column i, A(i, k) from the
    // transposed lower part. A k found in both is walked once (`mark`).
    let (below_ptr, below) = lower_by_rows(a);
    let neighbours = |i: usize| {
        let upper = a.col(i).0.iter().copied().filter(move |&k| k < i);
        upper.chain(below[below_ptr[i]..below_ptr[i + 1]].iter().map(|&k| k as usize))
    };

    // Counting walk. Row i's subtree needs only the tree over the rows
    // before it, so row i first extends the tree; column j's count lands
    // in `l_col_ptr[j + 1]`.
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    let mut mark = vec![NO_PARENT; n];
    let mut l_col_ptr = vec![0usize; n + 1];
    for i in 0..n {
        for k in neighbours(i) {
            link(&mut parent, &mut ancestor, k, i);
        }
        row_subtree(&parent, &mut mark, i, neighbours(i), |j| l_col_ptr[j + 1] += 1);
    }
    drop(ancestor);
    for j in 0..n {
        l_col_ptr[j + 1] += l_col_ptr[j];
    }

    // Writing walk over the finished tree. `l_col_ptr[j]` is column j's
    // next free slot, and rows arrive in ascending i, so every column
    // comes out sorted; the shift below restores the pointers.
    let mut l_row_idx = vec![0u32; l_col_ptr[n]];
    mark.fill(NO_PARENT);
    for i in 0..n {
        row_subtree(&parent, &mut mark, i, neighbours(i), |j| {
            l_row_idx[l_col_ptr[j]] = i as u32;
            l_col_ptr[j] += 1;
        });
    }
    l_col_ptr.rotate_right(1);
    l_col_ptr[0] = 0;
    Ok(FilledPattern { n, l_col_ptr, l_row_idx, etree: EliminationTree::from_parents(parent) })
}

/// The strict lower pattern of a square `a` by rows, as row pointers and
/// `u32` columns: row `i` lists, ascending, the `k < i` with
/// `A(i, k) ≠ 0`. Exact-sized and pattern-only.
fn lower_by_rows(a: &CscMatrix) -> (Vec<usize>, Vec<u32>) {
    let n = a.ncols();
    let below = |k: usize| a.col(k).0.iter().copied().filter(move |&i| i > k);
    let mut ptr = vec![0usize; n + 1];
    for k in 0..n {
        for i in below(k) {
            ptr[i + 1] += 1;
        }
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    // `ptr[i]` is row i's next free slot; the shift restores it.
    let mut cols = vec![0u32; ptr[n]];
    for k in 0..n {
        for i in below(k) {
            cols[ptr[i]] = k as u32;
            ptr[i] += 1;
        }
    }
    ptr.rotate_right(1);
    ptr[0] = 0;
    (ptr, cols)
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
                let col: Vec<u32> =
                    (j + 1..22).filter(|&i| brute[i][j]).map(|i| i as u32).collect();
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
    fn a_missing_diagonal_changes_nothing() {
        let a = gen::circuit(200, 3);
        let (f, g) =
            (symbolic_fill(&a).unwrap(), symbolic_fill(&a.filter_entries(|i, j| i != j)).unwrap());
        assert_eq!((f.l_col_ptr, f.l_row_idx, f.etree), (g.l_col_ptr, g.l_row_idx, g.etree));
    }

    #[test]
    fn an_order_above_u32_max_is_refused() {
        let max = u32::MAX as usize;
        assert_eq!(check_order(max), Ok(()));
        assert_eq!(check_order(0), Ok(()));
        if let Some(over) = max.checked_add(1) {
            assert_eq!(check_order(over), Err(SparseError::OrderTooLarge { n: over, max }));
        }
    }

    #[test]
    fn non_square_is_refused() {
        let a = CscMatrix::zeros(3, 4);
        assert_eq!(symbolic_fill(&a).err(), Some(SparseError::NotSquare { nrows: 3, ncols: 4 }));
    }

    #[test]
    fn laplacian_fill_is_closed() {
        let a = gen::laplacian_2d(9, 9);
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        assert!(is_elimination_closed(&filled));
    }
}

//! Fill counts without materialising the fill.
//!
//! The Gilbert–Ng–Peyton style row-subtree count: `nnz(L)` and the
//! per-column counts of the Cholesky factor of a symmetric pattern come
//! out of the same elimination-tree walk the full symbolic uses, but
//! storing only counters — `O(nnz(A)·α)` time, `O(n)` space. The
//! block-size heuristic and the `FillReducing::Auto` ordering comparison
//! only need these numbers, not the pattern itself.

use crate::etree::{link, EliminationTree, NO_PARENT};
use pangulu_sparse::{CscMatrix, Permutation, Result, SparseError};

/// Per-column strict-lower fill counts plus totals.
#[derive(Debug, Clone)]
pub struct FillCounts {
    /// Strict-lower entries of each column of `L`.
    pub l_col_counts: Vec<usize>,
    /// The elimination tree (reusable by later phases).
    pub etree: EliminationTree,
}

impl FillCounts {
    /// Total entries of `L + U` including one diagonal copy.
    pub fn nnz_lu(&self) -> usize {
        2 * self.l_col_counts.iter().sum::<usize>() + self.l_col_counts.len()
    }

    /// Scalar factorisation FLOPs (same formula as
    /// `stats::stats_from_fill`).
    pub fn flops(&self) -> f64 {
        self.l_col_counts
            .iter()
            .map(|&c| {
                let lk = c as f64;
                lk + 2.0 * lk * lk
            })
            .sum()
    }
}

/// Counts the Cholesky fill of a structurally symmetric pattern with a
/// full diagonal, without storing it.
pub fn fill_counts_symmetric(sym: &CscMatrix) -> Result<FillCounts> {
    let n = sym.ncols();
    let etree = EliminationTree::from_symmetric_pattern(sym)?;
    let mut mark = vec![usize::MAX; n];
    let mut counts = vec![0usize; n];
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
                counts[j] += 1; // L(i, j) exists
                j = etree.parent(j);
                debug_assert!(j != NO_PARENT);
            }
        }
    }
    Ok(FillCounts { l_col_counts: counts, etree })
}

/// `nnz(L + U)` of the symmetric pattern `sym` reordered by `perm`
/// (`perm[new] = old`), or `None` as soon as the running total passes
/// `limit`. Neither the permuted matrix nor the fill is built: row `i` of
/// the reordered pattern first extends the elimination tree, then walks its
/// row subtree, which only needs the tree over the rows before it. The
/// diagonal counts whether or not `sym` stores it.
pub fn nnz_lu_within(sym: &CscMatrix, perm: &Permutation, limit: usize) -> Result<Option<usize>> {
    let n = sym.ncols();
    if !sym.is_square() {
        return Err(SparseError::NotSquare { nrows: sym.nrows(), ncols: n });
    }
    if perm.len() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "fill count: permutation of {} for a matrix of order {n}",
            perm.len()
        )));
    }
    let new_of = perm.inverse();
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    let mut mark = vec![NO_PARENT; n];
    let mut total = n;
    if total > limit {
        return Ok(None);
    }
    for i in 0..n {
        let (rows, _) = sym.col(perm.old_of(i));
        for k in rows.iter().map(|&r| new_of.old_of(r)).filter(|&k| k < i) {
            link(&mut parent, &mut ancestor, k, i);
        }
        // Every unmarked vertex on the way from k up to i is an L(i, j).
        mark[i] = i;
        for k in rows.iter().map(|&r| new_of.old_of(r)).filter(|&k| k < i) {
            let mut j = k;
            while mark[j] != i {
                mark[j] = i;
                total += 2;
                j = parent[j];
            }
        }
        if total > limit {
            return Ok(None);
        }
    }
    Ok(Some(total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::symbolic_fill_symmetric;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::{ensure_diagonal, symmetrize};

    fn sym(a: &CscMatrix) -> CscMatrix {
        ensure_diagonal(&symmetrize(a).unwrap()).unwrap()
    }

    #[test]
    fn counts_match_full_symbolic() {
        for seed in 0..4 {
            let a = sym(&gen::random_sparse(40, 0.08, seed));
            let counts = fill_counts_symmetric(&a).unwrap();
            let full = symbolic_fill_symmetric(&a).unwrap();
            for j in 0..40 {
                assert_eq!(counts.l_col_counts[j], full.l_col(j).len(), "column {j}, seed {seed}");
            }
            assert_eq!(counts.nnz_lu(), full.nnz_lu());
        }
    }

    #[test]
    fn permuted_count_matches_materialised_count() {
        for seed in 0..4u64 {
            let a = sym(&gen::random_sparse(60, 0.06, seed));
            // Reversal, a rotation, and the identity.
            let perms = [
                (0..60).rev().collect::<Vec<_>>(),
                (0..60).map(|i| (i + 17) % 60).collect(),
                (0..60).collect(),
            ];
            for p in perms {
                let perm = Permutation::from_vec(p).unwrap();
                let permuted = pangulu_sparse::permute::permute_symmetric(&a, &perm).unwrap();
                let full = fill_counts_symmetric(&permuted).unwrap().nnz_lu();
                assert_eq!(nnz_lu_within(&a, &perm, usize::MAX).unwrap(), Some(full));
                assert_eq!(nnz_lu_within(&a, &perm, full).unwrap(), Some(full));
                assert_eq!(nnz_lu_within(&a, &perm, full - 1).unwrap(), None);
            }
        }
    }

    #[test]
    fn permuted_count_ignores_a_missing_diagonal() {
        let a = gen::laplacian_2d(7, 5);
        let no_diag = a.filter_entries(|i, j| i != j);
        let perm = Permutation::identity(35);
        assert_eq!(
            nnz_lu_within(&no_diag, &perm, usize::MAX).unwrap(),
            nnz_lu_within(&a, &perm, usize::MAX).unwrap()
        );
    }

    #[test]
    fn flops_match_stats() {
        let a = sym(&gen::laplacian_2d(9, 9));
        let counts = fill_counts_symmetric(&a).unwrap();
        let full = symbolic_fill_symmetric(&a).unwrap();
        let stats = crate::stats::stats_from_fill(&a, &full);
        assert_eq!(counts.flops(), stats.flops);
    }

    #[test]
    fn tridiagonal_has_unit_counts() {
        let a = gen::tridiagonal(12);
        let counts = fill_counts_symmetric(&a).unwrap();
        assert!(counts.l_col_counts[..11].iter().all(|&c| c == 1));
        assert_eq!(counts.l_col_counts[11], 0);
    }
}

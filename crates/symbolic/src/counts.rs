//! Fill counts without materialising the fill.
//!
//! The row-subtree count: `nnz(L + U)` of a symmetric pattern under a
//! candidate ordering comes out of the same elimination-tree walk the
//! full symbolic uses, but storing only a counter — `O(n)` space. The
//! `FillReducing::Auto` ordering comparison only needs this number, not
//! the pattern itself.

use crate::etree::{check_permuted_pattern, link, row_subtree, NO_PARENT};
use pangulu_sparse::{Permutation, Result};

/// `nnz(L + U)` of the symmetric pattern (`col_ptr`, `row_idx`) reordered
/// by `perm` (`perm[new] = old`), or `None` as soon as the running total
/// passes `limit`. Neither the permuted matrix nor the fill is built: row
/// `i` of the reordered pattern first extends the elimination tree, then
/// walks its row subtree, which only needs the tree over the rows before
/// it. The diagonal counts whether or not the pattern stores it. A
/// [`CscMatrix`](pangulu_sparse::CscMatrix) passes `col_ptr()` and
/// `row_idx()`.
pub fn nnz_lu_within(
    col_ptr: &[usize],
    row_idx: &[usize],
    perm: &Permutation,
    limit: usize,
) -> Result<Option<usize>> {
    check_permuted_pattern(col_ptr, row_idx, perm, "fill count")?;
    let n = perm.len();
    let new_of = perm.inverse();
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    let mut mark = vec![NO_PARENT; n];
    let mut total = n;
    if total > limit {
        return Ok(None);
    }
    for i in 0..n {
        let old = perm.old_of(i);
        let rows = &row_idx[col_ptr[old]..col_ptr[old + 1]];
        for k in rows.iter().map(|&r| new_of.old_of(r)).filter(|&k| k < i) {
            link(&mut parent, &mut ancestor, k, i);
        }
        // Every unmarked vertex on the way from k up to i is an L(i, j).
        let neighbours = rows.iter().map(|&r| new_of.old_of(r)).filter(|&k| k < i);
        row_subtree(&parent, &mut mark, i, neighbours, |_| total += 2);
        if total > limit {
            return Ok(None);
        }
    }
    Ok(Some(total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::symbolic_fill;
    use pangulu_sparse::ops::{ensure_diagonal, symmetrize};
    use pangulu_sparse::{gen, CscMatrix};

    fn sym(a: &CscMatrix) -> CscMatrix {
        ensure_diagonal(&symmetrize(a).unwrap()).unwrap()
    }

    fn count(a: &CscMatrix, perm: &Permutation, limit: usize) -> Option<usize> {
        nnz_lu_within(a.col_ptr(), a.row_idx(), perm, limit).unwrap()
    }

    #[test]
    fn count_matches_full_symbolic() {
        // `symbolic_fill` reads the unsymmetric matrix; the count reads
        // its symmetrised pattern.
        for seed in 0..4 {
            let a = gen::random_sparse(40, 0.08, seed);
            let full = symbolic_fill(&a).unwrap().nnz_lu();
            let identity = Permutation::identity(40);
            assert_eq!(count(&sym(&a), &identity, usize::MAX), Some(full));
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
                let full = symbolic_fill(&permuted).unwrap().nnz_lu();
                assert_eq!(count(&a, &perm, usize::MAX), Some(full));
                assert_eq!(count(&a, &perm, full), Some(full));
                assert_eq!(count(&a, &perm, full - 1), None);
            }
        }
    }

    #[test]
    fn permuted_count_ignores_a_missing_diagonal() {
        let a = gen::laplacian_2d(7, 5);
        let no_diag = a.filter_entries(|i, j| i != j);
        let perm = Permutation::identity(35);
        assert_eq!(count(&no_diag, &perm, usize::MAX), count(&a, &perm, usize::MAX));
    }

    #[test]
    fn tridiagonal_has_unit_counts() {
        let a = gen::tridiagonal(12);
        let fill = symbolic_fill(&a).unwrap();
        assert!((0..11).all(|j| fill.l_col(j) == [j as u32 + 1]));
        assert!(fill.l_col(11).is_empty());
        let identity = Permutation::identity(12);
        assert_eq!(count(&a, &identity, usize::MAX), Some(a.nnz()));
    }
}

//! Fill counts without materialising the fill.
//!
//! The row-subtree count: `nnz(L + U)` of a symmetric pattern under a
//! candidate ordering comes out of the same elimination-tree walk the
//! full symbolic uses, but storing only a counter — `O(n)` space. The
//! `FillReducing::Auto` ordering comparison only needs this number, not
//! the pattern itself.

use crate::etree::{link, row_subtree, NO_PARENT};
use pangulu_sparse::{CscMatrix, Permutation, Result, SparseError};

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
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::{ensure_diagonal, symmetrize};

    fn sym(a: &CscMatrix) -> CscMatrix {
        ensure_diagonal(&symmetrize(a).unwrap()).unwrap()
    }

    #[test]
    fn count_matches_full_symbolic() {
        // `symbolic_fill` reads the unsymmetric matrix; the count reads
        // its symmetrised pattern.
        for seed in 0..4 {
            let a = gen::random_sparse(40, 0.08, seed);
            let full = symbolic_fill(&a).unwrap().nnz_lu();
            let identity = Permutation::identity(40);
            assert_eq!(nnz_lu_within(&sym(&a), &identity, usize::MAX).unwrap(), Some(full));
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
    fn tridiagonal_has_unit_counts() {
        let a = gen::tridiagonal(12);
        let fill = symbolic_fill(&a).unwrap();
        assert!((0..11).all(|j| fill.l_col(j) == [j as u32 + 1]));
        assert!(fill.l_col(11).is_empty());
        let identity = Permutation::identity(12);
        assert_eq!(nnz_lu_within(&a, &identity, usize::MAX).unwrap(), Some(a.nnz()));
    }
}

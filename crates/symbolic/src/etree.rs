//! Elimination trees (Liu's algorithm with path compression).
//!
//! The elimination tree of a symmetric pattern drives both the fill
//! computation and the level-set scheduling of the supernodal baseline
//! (the paper's §2.2 and §3.3).

use pangulu_sparse::{Permutation, Result, SparseError};

/// Sentinel for "no parent" (tree roots).
pub const NO_PARENT: usize = usize::MAX;

/// An elimination tree over `n` vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationTree {
    parent: Vec<usize>,
}

/// Checks that (`col_ptr`, `row_idx`) is a pattern of order `perm.len()`
/// a permuted walk can read: one pointer per column plus one,
/// non-decreasing, every row index in range.
pub(crate) fn check_permuted_pattern(
    col_ptr: &[usize],
    row_idx: &[usize],
    perm: &Permutation,
    what: &str,
) -> Result<()> {
    let n = perm.len();
    if col_ptr.len() != n + 1 {
        return Err(SparseError::DimensionMismatch(format!(
            "{what}: permutation of {n} for a pattern of order {}",
            col_ptr.len().saturating_sub(1)
        )));
    }
    if col_ptr.windows(2).any(|w| w[0] > w[1])
        || col_ptr[n] > row_idx.len()
        || row_idx[..col_ptr[n]].iter().any(|&r| r >= n)
    {
        return Err(SparseError::InvalidStructure(format!(
            "{what}: malformed pattern of order {n}"
        )));
    }
    Ok(())
}

/// Liu's step for an entry `(k, i)`, `k < i`: walks from `k` towards the
/// root of its current tree, compressing the path to `i`, and hangs that
/// root under `i`.
#[inline]
pub(crate) fn link(parent: &mut [usize], ancestor: &mut [usize], k: usize, i: usize) {
    let mut j = k;
    while ancestor[j] != i {
        let up = std::mem::replace(&mut ancestor[j], i);
        if up == NO_PARENT {
            parent[j] = i;
            break;
        }
        j = up;
    }
}

/// The row-subtree walk of row `i`: from each neighbour `k < i` up the
/// tree over the rows before `i`, calling `visit(j)` once for every vertex
/// `j` it reaches before `i` — the entries `L(i, j)` of the Cholesky
/// fill. `mark` must not hold `i` on entry; the walk leaves it there.
#[inline]
pub(crate) fn row_subtree(
    parent: &[usize],
    mark: &mut [usize],
    i: usize,
    neighbours: impl Iterator<Item = usize>,
    mut visit: impl FnMut(usize),
) {
    mark[i] = i;
    for k in neighbours {
        let mut j = k;
        while mark[j] != i {
            mark[j] = i;
            visit(j);
            j = parent[j];
            debug_assert!(j != NO_PARENT, "walk must reach row {i}");
        }
    }
}

impl EliminationTree {
    /// Wraps a parent array Liu's [`link`] built.
    pub(crate) fn from_parents(parent: Vec<usize>) -> Self {
        EliminationTree { parent }
    }

    /// The elimination tree of the symmetric pattern (`col_ptr`,
    /// `row_idx`) reordered symmetrically by `perm` (`perm[new] = old`),
    /// vertices numbered in the new order. The permuted matrix is not
    /// built: row `i` of the reordered pattern is column `perm[i]` read
    /// through the inverse permutation. A
    /// [`CscMatrix`](pangulu_sparse::CscMatrix) passes `col_ptr()` and
    /// `row_idx()`.
    pub fn from_permuted_pattern(
        col_ptr: &[usize],
        row_idx: &[usize],
        perm: &Permutation,
    ) -> Result<Self> {
        check_permuted_pattern(col_ptr, row_idx, perm, "elimination tree")?;
        let n = perm.len();
        let new_of = perm.inverse();
        let mut parent = vec![NO_PARENT; n];
        let mut ancestor = vec![NO_PARENT; n];
        for i in 0..n {
            let old = perm.old_of(i);
            for k in row_idx[col_ptr[old]..col_ptr[old + 1]].iter().map(|&r| new_of.old_of(r)) {
                if k < i {
                    link(&mut parent, &mut ancestor, k, i);
                }
            }
        }
        Ok(EliminationTree { parent })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of vertex `v`, or [`NO_PARENT`] for roots.
    #[inline]
    pub fn parent(&self, v: usize) -> usize {
        self.parent[v]
    }

    /// The raw parent array.
    pub fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// Children lists (index = parent).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut ch = vec![Vec::new(); n];
        for v in 0..n {
            let p = self.parent[v];
            if p != NO_PARENT {
                ch[p].push(v);
            }
        }
        ch
    }

    /// A postorder of the tree (children before parents), processing roots
    /// in ascending index order.
    pub fn postorder(&self) -> Vec<usize> {
        let n = self.parent.len();
        let children = self.children();
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (vertex, next child idx)
        for root in 0..n {
            if self.parent[root] != NO_PARENT {
                continue;
            }
            stack.push((root, 0));
            while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
                if *ci < children[v].len() {
                    let c = children[v][*ci];
                    *ci += 1;
                    stack.push((c, 0));
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        order
    }

    /// Level of each vertex: leaves of the tree have level 0 and a parent's
    /// level is one more than its deepest child. This is the level-set
    /// structure the supernodal baseline synchronises on (§3.3).
    pub fn levels(&self) -> Vec<usize> {
        let n = self.parent.len();
        let mut level = vec![0usize; n];
        // Postorder guarantees children are finalised before parents.
        for v in self.postorder() {
            let p = self.parent[v];
            if p != NO_PARENT {
                level[p] = level[p].max(level[v] + 1);
            }
        }
        level
    }

    /// Height of the tree (number of distinct levels).
    pub fn height(&self) -> usize {
        self.levels().iter().max().map_or(0, |&m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::ops::symmetrize;
    use pangulu_sparse::{gen, CscMatrix};

    /// The elimination tree symbolic factorisation builds for `a`.
    fn tree_of(a: &CscMatrix) -> Result<EliminationTree> {
        Ok(crate::symbolic_fill(a)?.etree)
    }

    /// Brute-force elimination tree: parent(j) = min { i > j : L(i,j) != 0 }
    /// where L is the Cholesky fill pattern computed by dense elimination.
    fn brute_etree(sym: &CscMatrix) -> Vec<usize> {
        let n = sym.ncols();
        let mut pat = vec![vec![false; n]; n];
        for (r, c, _) in sym.iter() {
            pat[r][c] = true;
            pat[c][r] = true;
        }
        for k in 0..n {
            let connected: Vec<usize> = (k + 1..n).filter(|&i| pat[i][k]).collect();
            for &i in &connected {
                for &j in &connected {
                    pat[i][j] = true;
                    pat[j][i] = true;
                }
            }
        }
        (0..n).map(|j| (j + 1..n).find(|&i| pat[i][j]).unwrap_or(NO_PARENT)).collect()
    }

    #[test]
    fn matches_brute_force_on_random() {
        // The walk reads A's two halves itself: symmetrising first changes
        // nothing.
        for seed in 0..4 {
            let a = gen::random_sparse(25, 0.12, seed);
            let t = tree_of(&a).unwrap();
            assert_eq!(t.parents(), brute_etree(&a).as_slice(), "seed {seed}");
            assert_eq!(t, tree_of(&symmetrize(&a).unwrap()).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn permuted_tree_matches_the_materialised_permutation() {
        for seed in 0..4u64 {
            let a = symmetrize(&gen::random_sparse(50, 0.07, seed)).unwrap();
            for p in
                [(0..50).rev().collect::<Vec<_>>(), (0..50).map(|i| (i * 7 + 3) % 50).collect()]
            {
                let perm = Permutation::from_vec(p).unwrap();
                let permuted = pangulu_sparse::permute::permute_symmetric(&a, &perm).unwrap();
                assert_eq!(
                    EliminationTree::from_permuted_pattern(a.col_ptr(), a.row_idx(), &perm)
                        .unwrap(),
                    tree_of(&permuted).unwrap(),
                    "seed {seed}"
                );
            }
        }
        let t = gen::tridiagonal(4);
        let (ptr, rows) = (t.col_ptr(), t.row_idx());
        let wrong = Permutation::identity(3);
        assert!(EliminationTree::from_permuted_pattern(ptr, rows, &wrong).is_err());
        // A row index past the order, and pointers that run backwards.
        let id = Permutation::identity(4);
        let mut past = rows.to_vec();
        past[1] = 4;
        assert!(EliminationTree::from_permuted_pattern(ptr, &past, &id).is_err());
        let mut backwards = ptr.to_vec();
        backwards.swap(1, 2);
        assert!(EliminationTree::from_permuted_pattern(&backwards, rows, &id).is_err());
    }

    #[test]
    fn chain_makes_path_tree() {
        // Tridiagonal: parent(j) = j+1.
        let n = 8;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let t = tree_of(&coo.to_csc()).unwrap();
        for j in 0..n - 1 {
            assert_eq!(t.parent(j), j + 1);
        }
        assert_eq!(t.parent(n - 1), NO_PARENT);
        assert_eq!(t.height(), n);
    }

    #[test]
    fn diagonal_matrix_is_forest_of_roots() {
        let t = tree_of(&CscMatrix::identity(5)).unwrap();
        assert!(t.parents().iter().all(|&p| p == NO_PARENT));
        assert_eq!(t.height(), 1);
        assert_eq!(t.postorder(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn postorder_is_topological() {
        let a = symmetrize(&gen::random_sparse(40, 0.08, 7)).unwrap();
        let t = tree_of(&a).unwrap();
        let post = t.postorder();
        assert_eq!(post.len(), 40);
        let mut pos = vec![0usize; 40];
        for (idx, &v) in post.iter().enumerate() {
            pos[v] = idx;
        }
        for v in 0..40 {
            if t.parent(v) != NO_PARENT {
                assert!(pos[v] < pos[t.parent(v)], "child {v} after parent");
            }
        }
    }

    #[test]
    fn levels_respect_parents() {
        let a = gen::laplacian_2d(6, 6);
        let t = tree_of(&a).unwrap();
        let lv = t.levels();
        for v in 0..36 {
            if t.parent(v) != NO_PARENT {
                assert!(lv[t.parent(v)] > lv[v]);
            }
        }
    }
}

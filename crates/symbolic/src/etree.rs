//! Elimination trees (Liu's algorithm with path compression).
//!
//! The elimination tree of a symmetric pattern drives both the fill
//! computation and the level-set scheduling of the supernodal baseline
//! (the paper's §2.2 and §3.3).

use pangulu_sparse::{CscMatrix, Permutation, Result, SparseError};

/// Sentinel for "no parent" (tree roots).
pub const NO_PARENT: usize = usize::MAX;

/// An elimination tree over `n` vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationTree {
    parent: Vec<usize>,
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

impl EliminationTree {
    /// Computes the elimination tree of a structurally symmetric matrix
    /// pattern (Liu's algorithm, O(nnz · α)).
    pub fn from_symmetric_pattern(sym: &CscMatrix) -> Result<Self> {
        if !sym.is_square() {
            return Err(SparseError::NotSquare { nrows: sym.nrows(), ncols: sym.ncols() });
        }
        let n = sym.ncols();
        let mut parent = vec![NO_PARENT; n];
        let mut ancestor = vec![NO_PARENT; n];
        for i in 0..n {
            // Rows are sorted; only the upper part (k < i) matters.
            for &k in sym.col(i).0.iter().take_while(|&&k| k < i) {
                link(&mut parent, &mut ancestor, k, i);
            }
        }
        Ok(EliminationTree { parent })
    }

    /// The elimination tree of `sym` reordered symmetrically by `perm`
    /// (`perm[new] = old`), vertices numbered in the new order. The
    /// permuted matrix is not built: row `i` of the reordered pattern is
    /// column `perm[i]` of `sym` read through the inverse permutation.
    pub fn from_permuted_pattern(sym: &CscMatrix, perm: &Permutation) -> Result<Self> {
        let n = sym.ncols();
        if !sym.is_square() {
            return Err(SparseError::NotSquare { nrows: sym.nrows(), ncols: n });
        }
        if perm.len() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "elimination tree: permutation of {} for a matrix of order {n}",
                perm.len()
            )));
        }
        let new_of = perm.inverse();
        let mut parent = vec![NO_PARENT; n];
        let mut ancestor = vec![NO_PARENT; n];
        for i in 0..n {
            for k in sym.col(perm.old_of(i)).0.iter().map(|&r| new_of.old_of(r)) {
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
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::symmetrize;

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
        for seed in 0..4 {
            let a = symmetrize(&gen::random_sparse(25, 0.12, seed)).unwrap();
            let t = EliminationTree::from_symmetric_pattern(&a).unwrap();
            assert_eq!(t.parents(), brute_etree(&a).as_slice(), "seed {seed}");
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
                    EliminationTree::from_permuted_pattern(&a, &perm).unwrap(),
                    EliminationTree::from_symmetric_pattern(&permuted).unwrap(),
                    "seed {seed}"
                );
            }
        }
        let wrong = Permutation::identity(3);
        assert!(EliminationTree::from_permuted_pattern(&gen::tridiagonal(4), &wrong).is_err());
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
        let t = EliminationTree::from_symmetric_pattern(&coo.to_csc()).unwrap();
        for j in 0..n - 1 {
            assert_eq!(t.parent(j), j + 1);
        }
        assert_eq!(t.parent(n - 1), NO_PARENT);
        assert_eq!(t.height(), n);
    }

    #[test]
    fn diagonal_matrix_is_forest_of_roots() {
        let t = EliminationTree::from_symmetric_pattern(&CscMatrix::identity(5)).unwrap();
        assert!(t.parents().iter().all(|&p| p == NO_PARENT));
        assert_eq!(t.height(), 1);
        assert_eq!(t.postorder(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn postorder_is_topological() {
        let a = symmetrize(&gen::random_sparse(40, 0.08, 7)).unwrap();
        let t = EliminationTree::from_symmetric_pattern(&a).unwrap();
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
        let t = EliminationTree::from_symmetric_pattern(&a).unwrap();
        let lv = t.levels();
        for v in 0..36 {
            if t.parent(v) != NO_PARENT {
                assert!(lv[t.parent(v)] > lv[v]);
            }
        }
    }
}

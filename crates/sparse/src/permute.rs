//! Permutations and diagonal scalings.
//!
//! The reordering phase produces a row permutation (MC64), a symmetric
//! fill-reducing permutation (ND/AMD) and optional row/column scalings;
//! this module applies them to matrices and vectors.

use crate::{CscMatrix, Result, SparseError};

/// A permutation of `{0, .., n-1}`, stored as `perm[new] = old`.
///
/// Applying `P` to rows of `A` yields `B[i, j] = A[perm[i], j]`; this
/// "gather" convention matches how reorderings are consumed downstream.
///
/// # Examples
/// ```
/// use pangulu_sparse::Permutation;
/// let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
/// assert_eq!(p.apply_vec(&[10, 20, 30]), vec![30, 10, 20]);
/// assert_eq!(p.inverse().compose(&p), Permutation::identity(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation { perm: (0..n).collect() }
    }

    /// Builds from `perm[new] = old`, validating that it is a bijection.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n {
                return Err(SparseError::InvalidStructure(format!(
                    "permutation entry {p} out of range 0..{n}"
                )));
            }
            if seen[p] {
                return Err(SparseError::InvalidStructure(format!(
                    "permutation entry {p} repeated"
                )));
            }
            seen[p] = true;
        }
        Ok(Permutation { perm })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The underlying `perm[new] = old` array.
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// Old index mapped to by `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// Parity of the permutation: `+1` for even, `-1` for odd (computed
    /// from the cycle decomposition). Needed for determinant signs.
    pub fn parity(&self) -> i8 {
        let n = self.perm.len();
        let mut seen = vec![false; n];
        let mut transpositions = 0usize;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cur = self.perm[cur];
                len += 1;
            }
            transpositions += len - 1;
        }
        if transpositions.is_multiple_of(2) {
            1
        } else {
            -1
        }
    }

    /// The inverse permutation (`inv[old] = new`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { perm: inv }
    }

    /// Composition: `(self ∘ other)` maps `new` through `self` then `other`,
    /// i.e. `result[new] = other[self[new]]`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation { perm: self.perm.iter().map(|&mid| other.perm[mid]).collect() }
    }

    /// Applies to a vector: `out[new] = v[perm[new]]`.
    pub fn apply_vec<T: Clone>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.len());
        self.perm.iter().map(|&old| v[old].clone()).collect()
    }

    /// Scatters a vector back: `out[perm[new]] = v[new]` (inverse apply).
    pub fn apply_inv_vec<T: Clone + Default>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.len());
        let mut out = vec![T::default(); v.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            out[old] = v[new].clone();
        }
        out
    }
}

/// Applies row and column permutations: `B = A[row_perm, col_perm]`, i.e.
/// `B[i, j] = A[row_perm[i], col_perm[j]]`.
pub fn permute(a: &CscMatrix, row_perm: &Permutation, col_perm: &Permutation) -> Result<CscMatrix> {
    permute_with(a, row_perm, col_perm, |v, _, _| v)
}

/// `B = P_r·D_r·A·D_c·P_cᵀ` in one pass: `B[i, j]` is
/// `A[r, c]·dr[r]·dc[c]` for `r = row_perm[i]`, `c = col_perm[j]` — the
/// arithmetic of [`scale`], so the result equals
/// `permute(&scale(a, dr, dc)?, row_perm, col_perm)` bit for bit without
/// the scaled copy.
pub fn permute_scaled(
    a: &CscMatrix,
    row_perm: &Permutation,
    col_perm: &Permutation,
    dr: &[f64],
    dc: &[f64],
) -> Result<CscMatrix> {
    if dr.len() != a.nrows() || dc.len() != a.ncols() {
        return Err(SparseError::DimensionMismatch("scale: diagonal lengths".into()));
    }
    permute_with(a, row_perm, col_perm, |v, r, c| v * dr[r] * dc[c])
}

/// The permutation loop of [`permute`] and [`permute_scaled`]: entry
/// `(r, c)` of `a` with value `v` lands permuted, holding `value(v, r, c)`.
fn permute_with(
    a: &CscMatrix,
    row_perm: &Permutation,
    col_perm: &Permutation,
    value: impl Fn(f64, usize, usize) -> f64,
) -> Result<CscMatrix> {
    if row_perm.len() != a.nrows() || col_perm.len() != a.ncols() {
        return Err(SparseError::DimensionMismatch(format!(
            "permute: perm lengths {} / {} vs matrix {}x{}",
            row_perm.len(),
            col_perm.len(),
            a.nrows(),
            a.ncols()
        )));
    }
    let row_inv = row_perm.inverse(); // row_inv[old] = new
    let n = a.ncols();
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0usize);
    let mut row_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    for new_j in 0..n {
        let old_j = col_perm.old_of(new_j);
        let (rows, vals) = a.col(old_j);
        scratch.clear();
        scratch
            .extend(rows.iter().zip(vals).map(|(&r, &v)| (row_inv.old_of(r), value(v, r, old_j))));
        scratch.sort_unstable_by_key(|&(r, _)| r);
        for &(r, v) in &scratch {
            row_idx.push(r);
            values.push(v);
        }
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(a.nrows(), a.ncols(), col_ptr, row_idx, values))
}

/// Symmetric permutation `B = A[perm, perm]`.
pub fn permute_symmetric(a: &CscMatrix, perm: &Permutation) -> Result<CscMatrix> {
    permute(a, perm, perm)
}

/// Applies row scaling `Dr` and column scaling `Dc`: `B = Dr A Dc` where the
/// scalings are given as diagonal vectors.
pub fn scale(a: &CscMatrix, dr: &[f64], dc: &[f64]) -> Result<CscMatrix> {
    if dr.len() != a.nrows() || dc.len() != a.ncols() {
        return Err(SparseError::DimensionMismatch("scale: diagonal lengths".into()));
    }
    let mut b = a.clone();
    for (j, &cj) in dc.iter().enumerate() {
        let lo = a.col_ptr()[j];
        let hi = a.col_ptr()[j + 1];
        for k in lo..hi {
            let r = a.row_idx()[k];
            b.values_mut()[k] = a.values()[k] * dr[r] * cj;
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert_eq!(p.inverse(), p);
        let v = vec![1, 2, 3, 4];
        assert_eq!(p.apply_vec(&v), v);
    }

    #[test]
    fn from_vec_rejects_non_bijections() {
        assert!(Permutation::from_vec(vec![0, 0]).is_err());
        assert!(Permutation::from_vec(vec![0, 2]).is_err());
        assert!(Permutation::from_vec(vec![1, 0]).is_ok());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(p.compose(&p.inverse()), Permutation::identity(4));
        assert_eq!(p.inverse().compose(&p), Permutation::identity(4));
    }

    #[test]
    fn apply_then_apply_inv_roundtrips() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        let v = vec![10, 20, 30, 40];
        assert_eq!(p.apply_inv_vec(&p.apply_vec(&v)), v);
    }

    #[test]
    fn parity_matches_transposition_count() {
        assert_eq!(Permutation::identity(5).parity(), 1);
        // One swap: odd.
        assert_eq!(Permutation::from_vec(vec![1, 0, 2]).unwrap().parity(), -1);
        // A 3-cycle: even.
        assert_eq!(Permutation::from_vec(vec![1, 2, 0]).unwrap().parity(), 1);
        // Reversal of 4 elements: two swaps, even.
        assert_eq!(Permutation::from_vec(vec![3, 2, 1, 0]).unwrap().parity(), 1);
    }

    #[test]
    fn permute_moves_entries() {
        // A = [1 0; 0 2], swap rows and columns -> [2 0; 0 1]
        let a = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        let p = Permutation::from_vec(vec![1, 0]).unwrap();
        let b = permute_symmetric(&a, &p).unwrap();
        assert_eq!(b.get(0, 0), 2.0);
        assert_eq!(b.get(1, 1), 1.0);
    }

    #[test]
    fn permute_matches_dense_reference() {
        let a = CscMatrix::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![4.0, 2.0, 3.0, 1.0, 5.0],
        )
        .unwrap();
        let rp = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let cp = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let b = permute(&a, &rp, &cp).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), a.get(rp.old_of(i), cp.old_of(j)));
            }
        }
        b.validate().unwrap();
    }

    #[test]
    fn scaling_scales() {
        let a = CscMatrix::identity(2);
        let b = scale(&a, &[2.0, 3.0], &[5.0, 7.0]).unwrap();
        assert_eq!(b.get(0, 0), 10.0);
        assert_eq!(b.get(1, 1), 21.0);
    }

    #[test]
    fn permute_scaled_equals_scaling_then_permuting_bit_for_bit() {
        let a = crate::gen::random_sparse(40, 0.1, 3);
        let dr: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64 * 0.37)).collect();
        let dc: Vec<f64> = (0..40).map(|j| 0.3 + (j % 7) as f64 * 0.71).collect();
        let rp = Permutation::from_vec((0..40).map(|i| (i * 7 + 3) % 40).collect()).unwrap();
        let cp = Permutation::from_vec((0..40).rev().collect()).unwrap();
        let two_pass = permute(&scale(&a, &dr, &dc).unwrap(), &rp, &cp).unwrap();
        let one_pass = permute_scaled(&a, &rp, &cp, &dr, &dc).unwrap();
        assert_eq!(one_pass.col_ptr(), two_pass.col_ptr());
        assert_eq!(one_pass.row_idx(), two_pass.row_idx());
        let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one_pass), bits(&two_pass));
        assert!(permute_scaled(&a, &rp, &cp, &dr[1..], &dc).is_err());
    }
}

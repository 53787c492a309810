//! Compressed sparse column format — the working format of the solver.
//!
//! Invariants (checked by [`CscMatrix::validate`], relied on everywhere):
//! `col_ptr` is monotone with `col_ptr[0] == 0` and
//! `col_ptr[ncols] == row_idx.len() == values.len()`; within each column the
//! row indices are strictly increasing (sorted, no duplicates) and in bounds.
//!
//! The value type is generic over [`Scalar`] with `f64` as the default,
//! so `CscMatrix` in existing code means `CscMatrix<f64>`; the
//! mixed-precision factorisation path instantiates `CscMatrix<f32>`.
//!
//! The pattern (`col_ptr`, `row_idx`) is immutable once built and
//! reference-counted: [`Clone`], [`CscMatrix::cast`] and
//! [`CscMatrix::with_constant_values`] share it and copy only the values,
//! so matrices that differ only in their values store one pattern.
//! [`CscMatrix::pattern`] gives a value-less handle on it, a
//! `CscMatrix<()>` that allocates nothing of its own: the pattern
//! accessors work for any value type.

use crate::scalar::Scalar;
use crate::{CooMatrix, CsrMatrix, DenseMatrix, Result, SparseError};
use std::ptr::NonNull;
use std::sync::Arc;

/// A sparse matrix in compressed sparse column form.
#[derive(Clone)]
pub struct CscMatrix<S = f64> {
    nrows: usize,
    ncols: usize,
    /// Owns the index buffers. Nothing mutates a `Pattern`, so they never
    /// move while any matrix holds it.
    pattern: Arc<Pattern>,
    /// The starts of `pattern.col_ptr` (`ncols + 1` long) and
    /// `pattern.row_idx` (`values.len()` long). The accessors read the
    /// indices through these in one load, as from a `Vec` field; going
    /// through the `Arc` first cost a steady circuit refactorisation 3.5 %
    /// (one more dependent load per operand per task).
    col_ptr: NonNull<usize>,
    row_idx: NonNull<usize>,
    values: Vec<S>,
}

// SAFETY: field by field: `nrows` and `ncols` are plain integers;
// `pattern` is an `Arc<Pattern>` of two `Vec<usize>`, which is `Send +
// Sync`; `col_ptr` and `row_idx` only ever read buffers that `pattern`
// owns and nothing mutates, so they are no more than a shared borrow of
// it; `values` is a `Vec<S>`, sent only when `S: Send`.
unsafe impl<S: Send> Send for CscMatrix<S> {}
// SAFETY: as for `Send`: through `&CscMatrix` another thread reads the
// pattern (immutable) and gets `&[S]`, shared only when `S: Sync`.
unsafe impl<S: Sync> Sync for CscMatrix<S> {}

/// The shared, immutable half of a [`CscMatrix`].
#[derive(PartialEq, Eq)]
struct Pattern {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl<S> CscMatrix<S> {
    /// Moves the parts in. The two length checks are what make the
    /// accessors' reads through the cached pointers sound, so they run in
    /// every build; the rest of the invariants are
    /// [`CscMatrix::validate`]'s.
    fn new(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<S>,
    ) -> Result<Self> {
        if col_ptr.len() != ncols + 1 || row_idx.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "col_ptr has length {}, expected {}; {} row indices for {} values",
                col_ptr.len(),
                ncols + 1,
                row_idx.len(),
                values.len()
            )));
        }
        let pattern = Arc::new(Pattern { col_ptr, row_idx });
        let col_ptr = NonNull::from(pattern.col_ptr.as_slice()).cast();
        let row_idx = NonNull::from(pattern.row_idx.as_slice()).cast();
        Ok(CscMatrix { nrows, ncols, pattern, col_ptr, row_idx, values })
    }

    /// A matrix on this one's pattern with the given values, one per
    /// stored entry.
    fn with_values<T>(&self, values: Vec<T>) -> CscMatrix<T> {
        debug_assert_eq!(values.len(), self.values.len());
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            pattern: Arc::clone(&self.pattern),
            col_ptr: self.col_ptr,
            row_idx: self.row_idx,
            values,
        }
    }

    /// Builds a CSC matrix from raw parts, validating all invariants.
    ///
    /// # Examples
    /// ```
    /// use pangulu_sparse::CscMatrix;
    /// // [ 4 0 ]
    /// // [ 2 3 ]
    /// let a: CscMatrix = CscMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1],
    ///                                          vec![4.0, 2.0, 3.0]).unwrap();
    /// assert_eq!(a.get(1, 0), 2.0);
    /// assert_eq!(a.get(0, 1), 0.0);
    /// ```
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<S>,
    ) -> Result<Self> {
        let m = CscMatrix::new(nrows, ncols, col_ptr, row_idx, values)?;
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSC matrix from raw parts without validation.
    ///
    /// Callers must guarantee the invariants in the module docs; internal
    /// construction sites that build columns in order use this to avoid an
    /// O(nnz) re-check. Debug builds still validate; parts of inconsistent
    /// lengths panic in every build.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<S>,
    ) -> Self {
        let m = CscMatrix::new(nrows, ncols, col_ptr, row_idx, values)
            .expect("from_parts_unchecked given parts of inconsistent lengths");
        debug_assert!(m.validate().is_ok(), "from_parts_unchecked given invalid structure");
        m
    }

    /// Checks every structural invariant; see module docs. (The lengths
    /// of `col_ptr` and of `row_idx` against the values are checked when
    /// a matrix is built.)
    pub fn validate(&self) -> Result<()> {
        let (col_ptr, row_idx) = (self.col_ptr(), self.row_idx());
        if col_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure("col_ptr[0] != 0".into()));
        }
        if col_ptr[self.ncols] != row_idx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "col_ptr end {} vs {} row indices",
                col_ptr[self.ncols],
                row_idx.len()
            )));
        }
        for j in 0..self.ncols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "col_ptr not monotone at column {j}"
                )));
            }
            let col = &row_idx[col_ptr[j]..col_ptr[j + 1]];
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "rows not strictly increasing in column {j}"
                    )));
                }
            }
            if let Some(&last) = col.last() {
                if last >= self.nrows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row index {last} out of bounds in column {j}"
                    )));
                }
            }
        }
        Ok(())
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Fraction of stored entries over the dense entry count.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
        }
    }

    /// Column pointer array (length `ncols + 1`).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        self.indices().0
    }

    /// Row index array (length `nnz`).
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        self.indices().1
    }

    /// `(col_ptr, row_idx)` through the cached pointers.
    #[inline(always)]
    fn indices(&self) -> (&[usize], &[usize]) {
        // SAFETY: `new` checked that `pattern.col_ptr` holds `ncols + 1`
        // words and `pattern.row_idx` one word per value; `with_values`
        // keeps that count and `values_mut` cannot change it. `pattern`
        // keeps both buffers alive and unmoved, and nothing writes them.
        unsafe {
            (
                std::slice::from_raw_parts(self.col_ptr.as_ptr(), self.ncols + 1),
                std::slice::from_raw_parts(self.row_idx.as_ptr(), self.values.len()),
            )
        }
    }

    /// Value array (length `nnz`).
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Mutable value array; the pattern stays fixed.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [S] {
        &mut self.values
    }

    /// The row indices and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[S]) {
        let (col_ptr, row_idx) = self.indices();
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        (&row_idx[lo..hi], &self.values[lo..hi])
    }

    /// The row indices (shared) and values (mutable) of column `j`.
    /// The pattern itself cannot change — exactly what in-place kernels
    /// need.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> (&[usize], &mut [S]) {
        let (col_ptr, row_idx, values) = self.parts_mut();
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        (&row_idx[lo..hi], &mut values[lo..hi])
    }

    /// Disjoint borrows of the three underlying arrays:
    /// `(col_ptr, row_idx, values-mutable)`. Lets kernels hold the pattern
    /// and mutate values simultaneously.
    #[inline]
    pub fn parts_mut(&mut self) -> (&[usize], &[usize], &mut [S]) {
        // SAFETY: as in `indices`; the index buffers belong to `pattern`,
        // which the values never alias.
        let (col_ptr, row_idx) = unsafe {
            (
                std::slice::from_raw_parts(self.col_ptr.as_ptr(), self.ncols + 1),
                std::slice::from_raw_parts(self.row_idx.as_ptr(), self.values.len()),
            )
        };
        (col_ptr, row_idx, &mut self.values)
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        let col_ptr = self.col_ptr();
        col_ptr[j + 1] - col_ptr[j]
    }

    /// Position of entry `(i, j)` in the value array, if stored.
    pub fn find(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.col_ptr()[j];
        let (rows, _) = self.col(j);
        rows.binary_search(&i).ok().map(|k| lo + k)
    }

    /// `true` if `self` and `other` store one pattern, not two equal ones.
    pub fn shares_pattern<T>(&self, other: &CscMatrix<T>) -> bool {
        Arc::ptr_eq(&self.pattern, &other.pattern)
    }

    /// A value-less handle on this matrix's pattern: it shares the
    /// pattern (no index is copied) and allocates nothing, so it keeps the
    /// pattern alive and readable without its values.
    pub fn pattern(&self) -> CscMatrix<()> {
        self.with_values(vec![(); self.nnz()])
    }

    /// Heap bytes of the pattern, which every matrix sharing it shares:
    /// the reference-counted header and both index buffers.
    pub fn pattern_bytes(&self) -> usize {
        let Pattern { col_ptr, row_idx } = &*self.pattern;
        std::mem::size_of::<Pattern>()
            + 2 * std::mem::size_of::<usize>()
            + (col_ptr.capacity() + row_idx.capacity()) * std::mem::size_of::<usize>()
    }
}

impl CscMatrix<()> {
    /// A matrix on this (shared) pattern with every stored value `v`:
    /// how a pattern cut before its values gets them.
    pub fn with_constant_values<T: Clone>(&self, v: T) -> CscMatrix<T> {
        self.with_values(vec![v; self.nnz()])
    }
}

impl<S: PartialEq> PartialEq for CscMatrix<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && self.pattern == other.pattern
            && self.values == other.values
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for CscMatrix<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CscMatrix")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("col_ptr", &self.pattern.col_ptr)
            .field("row_idx", &self.pattern.row_idx)
            .field("values", &self.values)
            .finish()
    }
}

impl<S: Scalar> CscMatrix<S> {
    /// An `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix::from_parts_unchecked(nrows, ncols, vec![0; ncols + 1], Vec::new(), Vec::new())
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CscMatrix::from_parts_unchecked(n, n, (0..=n).collect(), (0..n).collect(), vec![S::ONE; n])
    }

    /// Value at `(i, j)`, or zero if not stored. O(log col_nnz).
    pub fn get(&self, i: usize, j: usize) -> S {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => S::ZERO,
        }
    }

    /// Iterates over stored entries in column-major order as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, S)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            let (rows, vals) = self.col(j);
            rows.iter().zip(vals.iter()).map(move |(&r, &v)| (r, j, v))
        })
    }

    /// Converts to triplet form (widening values to `f64`).
    pub fn to_coo(&self) -> CooMatrix {
        let mut m = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            m.push(r, c, v.to_f64()).expect("csc indices are in bounds");
        }
        m
    }

    /// Converts to compressed sparse row form.
    pub fn to_csr(&self) -> CsrMatrix<S> {
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in self.row_idx() {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let row_ptr = row_counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![S::ZERO; self.nnz()];
        let mut next = row_ptr.clone();
        // Walking columns in order makes each row's column list sorted.
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let dst = next[r];
                col_idx[dst] = j;
                values[dst] = v;
                next[r] += 1;
            }
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// Converts to a dense column-major matrix (widening values to `f64`).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v.to_f64();
        }
        d
    }

    /// Transpose (values included).
    pub fn transpose(&self) -> CscMatrix<S> {
        let t = self.to_csr();
        // CSR of A has the same memory layout as CSC of A^T.
        CscMatrix::from_parts_unchecked(
            self.ncols,
            self.nrows,
            t.row_ptr().to_vec(),
            t.col_idx().to_vec(),
            t.values().to_vec(),
        )
    }

    /// Returns a matrix on the same (shared) pattern with all values set
    /// to `v`.
    pub fn with_constant_values(&self, v: S) -> CscMatrix<S> {
        self.with_values(vec![v; self.nnz()])
    }

    /// Re-types the matrix into another scalar precision: the pattern is
    /// shared, every value is rounded through `f64`, so casting f32
    /// values back widens them exactly.
    pub fn cast<T: Scalar>(&self) -> CscMatrix<T> {
        self.with_values(self.values.iter().map(|v| T::from_f64(v.to_f64())).collect())
    }

    /// Extracts the sub-matrix `rows x cols` given *sorted* index ranges
    /// expressed as half-open intervals. Used by the blocking stage.
    pub fn sub_matrix(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> CscMatrix<S> {
        let nrows = row_range.end - row_range.start;
        let ncols = col_range.end - col_range.start;
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for j in col_range {
            let (rows, vals) = self.col(j);
            let lo = rows.partition_point(|&r| r < row_range.start);
            let hi = rows.partition_point(|&r| r < row_range.end);
            for k in lo..hi {
                row_idx.push(rows[k] - row_range.start);
                values.push(vals[k]);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix::from_parts_unchecked(nrows, ncols, col_ptr, row_idx, values)
    }

    /// Keeps the entries for which `keep(row, col)` holds.
    pub fn filter_entries(&self, keep: impl Fn(usize, usize) -> bool) -> CscMatrix<S> {
        let mut col_ptr = Vec::with_capacity(self.ncols + 1);
        col_ptr.push(0usize);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                if keep(r, j) {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, col_ptr, row_idx, values)
    }

    /// Frobenius norm of the stored values (accumulated in `f64`).
    pub fn norm_fro(&self) -> f64 {
        self.values.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt()
    }

    /// Maximum absolute stored value (0.0 for an empty matrix).
    pub fn norm_max(&self) -> f64 {
        self.values.iter().fold(0.0f64, |m, v| m.max(v.to_f64().abs()))
    }

    /// `true` if every diagonal position of a square matrix is stored.
    pub fn has_full_diagonal(&self) -> bool {
        self.is_square() && (0..self.ncols).all(|j| self.find(j, j).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 4 0 1 ]
        // [ 0 3 0 ]
        // [ 2 0 5 ]
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
    fn validate_accepts_good_structure() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_ptr_len() {
        assert!(CscMatrix::<f64>::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn validate_rejects_unsorted_rows() {
        assert!(CscMatrix::<f64>::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_rows() {
        assert!(CscMatrix::<f64>::from_parts(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn validate_rejects_oob_row() {
        assert!(CscMatrix::<f64>::from_parts(2, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn get_and_find() {
        let m = sample();
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.find(2, 0), Some(1));
        assert_eq!(m.find(1, 2), None);
    }

    #[test]
    fn csr_roundtrip_preserves_entries() {
        let m = sample();
        let back = m.to_csr().to_csc();
        assert_eq!(m, back);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(0, 2), 2.0);
    }

    #[test]
    fn identity_is_identity() {
        let i = CscMatrix::<f64>::identity(4);
        assert!(i.has_full_diagonal());
        assert_eq!(i.nnz(), 4);
        for j in 0..4 {
            assert_eq!(i.get(j, j), 1.0);
        }
    }

    #[test]
    fn sub_matrix_extracts_window() {
        let m = sample();
        let s = m.sub_matrix(0..2, 0..2);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(1, 1), 3.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn dense_conversion_matches_get() {
        let m = sample();
        let d = m.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d[(i, j)], m.get(i, j));
            }
        }
    }

    #[test]
    fn cast_roundtrip_is_exact_for_f32_representable() {
        let m = sample();
        let f: CscMatrix<f32> = m.cast();
        assert_eq!(f.get(2, 0), 2.0f32);
        let back: CscMatrix<f64> = f.cast();
        assert_eq!(back, m);
    }

    #[test]
    fn clone_cast_and_constant_values_share_the_pattern() {
        let m = sample();
        let same = |x: &[usize], y: &[usize]| x.as_ptr() == y.as_ptr();
        let mut copies: Vec<CscMatrix> = vec![m.clone(), m.with_constant_values(7.0)];
        let narrow: CscMatrix<f32> = m.cast();
        copies.push(narrow.cast());
        for c in &copies {
            assert!(c.shares_pattern(&m) && c.shares_pattern(&narrow));
            assert!(same(c.row_idx(), m.row_idx()) && same(c.col_ptr(), m.col_ptr()));
        }
        assert!(same(narrow.row_idx(), m.row_idx()) && same(narrow.col_ptr(), m.col_ptr()));
        for c in &mut copies {
            c.values_mut().fill(-1.0);
        }
        assert_eq!(m.values(), &[4.0, 2.0, 3.0, 1.0, 5.0], "the source keeps its values");
        assert_eq!(m.pattern_bytes(), copies[0].pattern_bytes());
        assert!(!m.shares_pattern(&sample()) && m == sample(), "equal is not shared");
    }

    #[test]
    fn a_value_less_handle_shares_the_pattern_and_outlives_its_matrix() {
        let m = sample();
        let handle = m.pattern();
        assert!(handle.shares_pattern(&m));
        assert_eq!((handle.nrows(), handle.ncols(), handle.nnz()), (3, 3, 5));
        let (col_ptr, row_idx) = (m.col_ptr().to_vec(), m.row_idx().to_vec());
        drop(m);
        assert_eq!((handle.col_ptr(), handle.row_idx()), (&col_ptr[..], &row_idx[..]));
        assert_eq!(handle.find(2, 0), Some(1));
        let zeros: CscMatrix<f32> = handle.with_constant_values(0.0);
        assert!(zeros.shares_pattern(&handle) && zeros.values() == [0.0; 5]);
        assert!(handle.validate().is_ok());
    }

    #[test]
    fn inconsistent_lengths_are_refused_in_every_build() {
        assert!(CscMatrix::<f64>::from_parts(2, 1, vec![0, 1], vec![0], vec![]).is_err());
        let unchecked = std::panic::catch_unwind(|| {
            CscMatrix::<f64>::from_parts_unchecked(2, 1, vec![0, 1], vec![0], vec![])
        });
        assert!(unchecked.is_err(), "the accessors would read past the values");
    }

    #[test]
    fn from_parts_keeps_the_buffers_it_is_given() {
        let (col_ptr, row_idx) = (vec![0, 2, 3, 5], vec![0, 2, 1, 0, 2]);
        let (p, r) = (col_ptr.as_ptr(), row_idx.as_ptr());
        let m = CscMatrix::from_parts(3, 3, col_ptr, row_idx, vec![1.0; 5]).unwrap();
        assert_eq!((m.col_ptr().as_ptr(), m.row_idx().as_ptr()), (p, r));
        let (col_ptr, row_idx) = (vec![0, 1, 2], vec![1, 0]);
        let (p, r) = (col_ptr.as_ptr(), row_idx.as_ptr());
        let u = CscMatrix::from_parts_unchecked(2, 2, col_ptr, row_idx, vec![1.0f32; 2]);
        assert_eq!((u.col_ptr().as_ptr(), u.row_idx().as_ptr()), (p, r));
    }

    #[test]
    fn density_of_empty() {
        assert_eq!(CscMatrix::<f64>::zeros(0, 0).density(), 0.0);
        assert!((sample().density() - 5.0 / 9.0).abs() < 1e-15);
    }
}

//! Triplet (coordinate) format, the assembly format.
//!
//! Entries may be pushed in any order and may repeat; duplicates are summed
//! when converting to a compressed format, which is the standard assembly
//! semantics for finite-element-style workloads.

use crate::{CscMatrix, Result, SparseError};

/// A sparse matrix in coordinate (triplet) form.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty triplet matrix of the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty triplet matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends the entry `(row, col, val)`.
    ///
    /// Returns an error if the indices are out of bounds. Zero values are
    /// kept: explicit zeros are meaningful to symbolic analysis.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Iterates over the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.iter().zip(self.cols.iter()).zip(self.vals.iter()).map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSC, summing duplicate entries.
    pub fn to_csc(&self) -> CscMatrix {
        // Count entries per column, then bucket-sort triplets into columns.
        let mut col_counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            col_counts[c + 1] += 1;
        }
        for j in 0..self.ncols {
            col_counts[j + 1] += col_counts[j];
        }
        let col_ptr_raw = col_counts.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut next = col_ptr_raw.clone();
        for i in 0..self.nnz() {
            let c = self.cols[i];
            let dst = next[c];
            row_idx[dst] = self.rows[i];
            vals[dst] = self.vals[i];
            next[c] += 1;
        }
        // Sort each column by row index and merge duplicates.
        let mut out_ptr = vec![0usize; self.ncols + 1];
        let mut out_rows = Vec::with_capacity(self.nnz());
        let mut out_vals = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..self.ncols {
            let (lo, hi) = (col_ptr_raw[j], col_ptr_raw[j + 1]);
            scratch.clear();
            scratch.extend(row_idx[lo..hi].iter().copied().zip(vals[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < scratch.len() {
                let (r, mut v) = scratch[k];
                let mut k2 = k + 1;
                while k2 < scratch.len() && scratch[k2].0 == r {
                    v += scratch[k2].1;
                    k2 += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
                k = k2;
            }
            out_ptr[j + 1] = out_rows.len();
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, out_ptr, out_rows, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_dims() {
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 0, 1.0).unwrap();
        m.push(2, 3, -2.0).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn push_out_of_bounds_rejected() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
    }

    #[test]
    fn duplicates_are_summed_in_csc() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 1, 2.0).unwrap();
        m.push(1, 1, 3.0).unwrap();
        m.push(0, 1, 1.0).unwrap();
        let c = m.to_csc();
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(1, 1), 5.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn to_csc_sorts_rows_within_columns() {
        let mut m = CooMatrix::new(4, 2);
        m.push(3, 0, 1.0).unwrap();
        m.push(0, 0, 2.0).unwrap();
        m.push(2, 0, 3.0).unwrap();
        let c = m.to_csc();
        let (rows, _) = c.col(0);
        assert_eq!(rows, &[0, 2, 3]);
        c.validate().unwrap();
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = CooMatrix::new(5, 5);
        let c = m.to_csc();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 5);
        c.validate().unwrap();
    }
}

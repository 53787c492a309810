//! Dense 2-D blocked storage over the supernode partition.
//!
//! The matrix is partitioned by supernode boundaries in both dimensions;
//! every block containing at least one scalar entry of the filled pattern
//! is stored **fully dense**, explicit zero padding included. This is the
//! supernodal method's defining storage trade: regular dense blocks for
//! dense-BLAS speed, bought with padded zeros and wasted FLOPs — the
//! paper's motivation §3.1/§3.2.

use pangulu_sparse::{CscMatrix, DenseMatrix, Result, SparseError};

use crate::supernode::SupernodePartition;

/// The supernode-blocked dense matrix.
#[derive(Debug, Clone)]
pub struct SnBlockMatrix {
    /// Global order.
    n: usize,
    /// Number of supernodes (block rows/columns).
    nsn: usize,
    /// Supernode partition used to cut the matrix.
    part: SupernodePartition,
    /// Block-level CSC: prefix sums per block column.
    col_ptr: Vec<usize>,
    /// Block-level CSC: block row per non-empty block.
    row_idx: Vec<usize>,
    /// Dense storage per non-empty block.
    blocks: Vec<DenseMatrix>,
    /// True (unpadded) scalar nnz per block, for the density statistics.
    true_nnz: Vec<usize>,
}

impl SnBlockMatrix {
    /// Builds the blocked form of a filled (closed-pattern) matrix.
    pub fn from_filled(filled: &CscMatrix, part: SupernodePartition) -> Result<Self> {
        if !filled.is_square() {
            return Err(SparseError::NotSquare { nrows: filled.nrows(), ncols: filled.ncols() });
        }
        let n = filled.ncols();
        let nsn = part.len();
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        let mut blocks = Vec::new();
        let mut true_nnz = Vec::new();

        for sj in 0..nsn {
            let cols = part.cols(sj);
            // Which block rows appear in this block column.
            let mut present: Vec<usize> = Vec::new();
            let mut slot = vec![usize::MAX; nsn];
            for j in cols.clone() {
                let (rows, _) = filled.col(j);
                for &i in rows {
                    let si = part.sn_of_col[i];
                    if slot[si] == usize::MAX {
                        slot[si] = 0;
                        present.push(si);
                    }
                }
            }
            present.sort_unstable();
            for (k, &si) in present.iter().enumerate() {
                slot[si] = k;
            }
            let mut col_blocks: Vec<DenseMatrix> =
                present.iter().map(|&si| DenseMatrix::zeros(part.width(si), cols.len())).collect();
            let mut col_true = vec![0usize; present.len()];
            for j in cols.clone() {
                let (rows, vals) = filled.col(j);
                let local_c = j - cols.start;
                for (&i, &v) in rows.iter().zip(vals) {
                    let si = part.sn_of_col[i];
                    let s = slot[si];
                    col_blocks[s][(i - part.starts[si], local_c)] = v;
                    col_true[s] += 1;
                }
            }
            for (s, &si) in present.iter().enumerate() {
                row_idx.push(si);
                blocks.push(std::mem::replace(&mut col_blocks[s], DenseMatrix::zeros(0, 0)));
                true_nnz.push(col_true[s]);
            }
            col_ptr.push(row_idx.len());
        }

        Ok(SnBlockMatrix { n, nsn, part, col_ptr, row_idx, blocks, true_nnz })
    }

    /// Global order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of supernodes.
    pub fn nsn(&self) -> usize {
        self.nsn
    }

    /// The partition behind the blocking.
    pub fn partition(&self) -> &SupernodePartition {
        &self.part
    }

    /// Number of non-empty blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Id of block `(si, sj)` if non-empty.
    pub fn block_id(&self, si: usize, sj: usize) -> Option<usize> {
        let lo = self.col_ptr[sj];
        let hi = self.col_ptr[sj + 1];
        self.row_idx[lo..hi].binary_search(&si).ok().map(|k| lo + k)
    }

    /// Coordinates of a block id.
    pub fn block_coords(&self, id: usize) -> (usize, usize) {
        let sj = self.col_ptr.partition_point(|&p| p <= id) - 1;
        (self.row_idx[id], sj)
    }

    /// The dense block with the given id.
    pub fn block(&self, id: usize) -> &DenseMatrix {
        &self.blocks[id]
    }

    /// Mutable dense block.
    pub fn block_mut(&mut self, id: usize) -> &mut DenseMatrix {
        &mut self.blocks[id]
    }

    /// Density of a block: true entries over dense storage.
    pub fn block_density(&self, id: usize) -> f64 {
        let b = &self.blocks[id];
        if b.nrows() * b.ncols() == 0 {
            0.0
        } else {
            self.true_nnz[id] as f64 / (b.nrows() * b.ncols()) as f64
        }
    }

    /// Non-empty blocks of block column `sj` as `(si, id)` pairs.
    pub fn col_blocks(&self, sj: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.col_ptr[sj];
        let hi = self.col_ptr[sj + 1];
        self.row_idx[lo..hi].iter().enumerate().map(move |(k, &si)| (si, lo + k))
    }

    /// Total dense (padded) storage — the supernodal `nnz(L+U)` the paper
    /// reports in Table 3.
    pub fn padded_nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nrows() * b.ncols()).sum()
    }

    /// Reassembles the global matrix (tests / solves). Padded zeros are
    /// dropped.
    pub fn to_csc(&self) -> CscMatrix {
        let mut coo = pangulu_sparse::CooMatrix::new(self.n, self.n);
        for sj in 0..self.nsn {
            let c0 = self.part.starts[sj];
            for (si, id) in self.col_blocks(sj) {
                let r0 = self.part.starts[si];
                let b = &self.blocks[id];
                for c in 0..b.ncols() {
                    for r in 0..b.nrows() {
                        let v = b[(r, c)];
                        if v != 0.0 {
                            coo.push(r0 + r, c0 + c, v).expect("in bounds");
                        }
                    }
                }
            }
        }
        coo.to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernode::{detect, SupernodeOptions};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn build(n: usize, seed: u64) -> (CscMatrix, SnBlockMatrix) {
        let a = ensure_diagonal(&gen::random_sparse(n, 0.1, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        let part = detect(&f, SupernodeOptions::default());
        let sbm = SnBlockMatrix::from_filled(&filled, part).unwrap();
        (filled, sbm)
    }

    #[test]
    fn roundtrip_recovers_nonzeros() {
        let (filled, sbm) = build(50, 1);
        let back = sbm.to_csc();
        // Every (numerically nonzero) entry must round-trip; fill zeros
        // may drop, so compare via dense.
        let d1 = filled.to_dense();
        let d2 = back.to_dense();
        assert!(d1.max_abs_diff(&d2) < 1e-15);
    }

    #[test]
    fn padding_never_negative() {
        let (filled, sbm) = build(60, 2);
        assert!(sbm.padded_nnz() >= filled.nnz());
    }

    #[test]
    fn densities_in_unit_interval() {
        let (_, sbm) = build(60, 3);
        for id in 0..sbm.num_blocks() {
            let d = sbm.block_density(id);
            assert!((0.0..=1.0).contains(&d), "density {d}");
            assert!(d > 0.0, "a stored block must contain at least one entry");
        }
    }

    #[test]
    fn diagonal_blocks_exist() {
        let (_, sbm) = build(40, 4);
        for s in 0..sbm.nsn() {
            assert!(sbm.block_id(s, s).is_some(), "diagonal supernode block {s}");
        }
    }
}

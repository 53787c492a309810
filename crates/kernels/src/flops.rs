//! FLOP accounting for kernel invocations.
//!
//! The paper's static load-balancing scheme (§4.2) weighs every task by
//! the FLOPs of its kernel, and the decision trees of Figure 8 key on the
//! SSSSM FLOP count; the discrete-event scalability simulator also charges
//! tasks by these numbers. All counts are derived from patterns only.

use pangulu_sparse::{CscMatrix, Scalar};

/// Fixed per-task launch overhead added to every task weight by the
/// critical-path priority computation. Keeping it strictly positive
/// guarantees every task's longest-path-to-sink length strictly exceeds
/// each of its successors' even when a kernel's FLOP model rounds to
/// zero (empty blocks) — the strict-decrease invariant
/// `tests/priorities.rs` checks.
pub const TASK_LAUNCH_COST: f64 = 1.0;

/// FLOPs of a GETRF on a diagonal block: for each column `j`, two flops
/// per (upper entry `k`, strict-lower entry of column `k`) pair, plus one
/// division per strict-lower entry of `j`.
pub fn getrf_flops<S: Scalar>(block: &CscMatrix<S>) -> f64 {
    let n = block.ncols();
    // Strict-lower counts per column.
    let lcount: Vec<usize> = (0..n)
        .map(|k| {
            let (rows, _) = block.col(k);
            rows.len() - rows.partition_point(|&i| i <= k)
        })
        .collect();
    let mut flops = 0.0f64;
    for j in 0..n {
        let (rows, _) = block.col(j);
        for &k in rows {
            if k >= j {
                break;
            }
            flops += 2.0 * lcount[k] as f64;
        }
        flops += lcount[j] as f64;
    }
    flops
}

/// FLOPs of a GESSM `L X = B`: two flops per (entry `(k, c)` of `B`,
/// strict-lower entry of `L(:, k)`) pair.
pub fn gessm_flops<S: Scalar>(diag: &CscMatrix<S>, b: &CscMatrix<S>) -> f64 {
    let n = diag.ncols();
    let lcount: Vec<usize> = (0..n)
        .map(|k| {
            let (rows, _) = diag.col(k);
            rows.len() - rows.partition_point(|&i| i <= k)
        })
        .collect();
    let mut flops = 0.0f64;
    for c in 0..b.ncols() {
        let (rows, _) = b.col(c);
        for &k in rows {
            flops += 2.0 * lcount[k] as f64;
        }
    }
    flops
}

/// FLOPs of a TSTRF `X U = B`: two flops per (entry `(r, k)` of `B`,
/// strict-upper entry of row `k` of `U`) pair, plus one division per entry
/// of `B`.
pub fn tstrf_flops<S: Scalar>(diag: &CscMatrix<S>, b: &CscMatrix<S>) -> f64 {
    let n = diag.ncols();
    // Strict-upper counts per *row* of the diagonal block.
    let mut ucount = vec![0usize; n];
    for (i, j, _) in diag.iter() {
        if i < j {
            ucount[i] += 1;
        }
    }
    let mut flops = b.nnz() as f64; // divisions
    for (c, &uc) in ucount.iter().enumerate() {
        flops += 2.0 * uc as f64 * b.col_nnz(c) as f64;
    }
    flops
}

/// FLOPs of an SSSSM `C ← C − A·B`: two flops per (entry `(k, j)` of `B`,
/// entry of `A(:, k)`) pair.
///
/// Walks `B`'s row indices against `A`'s column pointer directly — one
/// subtraction per touched `B` entry — instead of a per-entry
/// `col_nnz` accessor call, so the cost is O(entries touched).
pub fn ssssm_flops<S: Scalar>(a: &CscMatrix<S>, b: &CscMatrix<S>) -> f64 {
    let a_ptr = a.col_ptr();
    let mut pairs = 0usize;
    for &k in b.row_idx() {
        pairs += a_ptr[k + 1] - a_ptr[k];
    }
    2.0 * pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::DenseMatrix;

    fn dense_block(n: usize) -> CscMatrix {
        let mut d = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                d[(i, j)] = 1.0;
            }
        }
        let coo = {
            let mut c = pangulu_sparse::CooMatrix::new(n, n);
            for i in 0..n {
                for j in 0..n {
                    c.push(i, j, 1.0).unwrap();
                }
            }
            c
        };
        coo.to_csc()
    }

    #[test]
    fn getrf_dense_matches_closed_form() {
        // Dense n x n LU: sum_j [ (n-1-j) + sum_{k<j} 2 (n-1-k) ].
        let n = 6;
        let b = dense_block(n);
        let expect: f64 = (0..n)
            .map(|j| (n - 1 - j) as f64 + (0..j).map(|k| 2.0 * (n - 1 - k) as f64).sum::<f64>())
            .sum();
        assert_eq!(getrf_flops(&b), expect);
    }

    #[test]
    fn gessm_dense_matches_closed_form() {
        // Dense: per column of B, sum_k 2 (n-1-k) = n(n-1).
        let n = 5;
        let diag = dense_block(n);
        let b = dense_block(n);
        assert_eq!(gessm_flops(&diag, &b), (n * n * (n - 1)) as f64);
    }

    #[test]
    fn tstrf_dense_matches_closed_form() {
        // Dense: divisions n*n plus per column c of B: 2 * c * n... using
        // ucount[r] = n-1-r summed against column counts.
        let n = 5;
        let diag = dense_block(n);
        let b = dense_block(n);
        let expect =
            (n * n) as f64 + (0..n).map(|c| 2.0 * (n - 1 - c) as f64 * n as f64).sum::<f64>();
        assert_eq!(tstrf_flops(&diag, &b), expect);
    }

    #[test]
    fn ssssm_dense_is_2n3() {
        let n = 4;
        let a = dense_block(n);
        let b = dense_block(n);
        assert_eq!(ssssm_flops(&a, &b), 2.0 * (n * n * n) as f64);
    }

    #[test]
    fn ssssm_hoisted_matches_per_column_walk() {
        // The hoisted count must equal the definitional per-(B-entry,
        // A-column) walk on irregular sparse operands, not just the
        // dense pin above.
        for seed in 0..5 {
            let a = pangulu_sparse::gen::random_sparse(23, 0.2, seed);
            let b = pangulu_sparse::gen::random_sparse(23, 0.15, seed + 50);
            let mut naive = 0.0f64;
            for j in 0..b.ncols() {
                let (rows, _) = b.col(j);
                for &k in rows {
                    naive += 2.0 * a.col_nnz(k) as f64;
                }
            }
            assert_eq!(ssssm_flops(&a, &b), naive, "seed {seed}");
        }
    }

    #[test]
    fn empty_blocks_cost_nothing() {
        let e = CscMatrix::<f64>::zeros(4, 4);
        assert_eq!(getrf_flops(&e), 0.0);
        assert_eq!(ssssm_flops(&e, &e), 0.0);
        assert_eq!(gessm_flops(&e, &e), 0.0);
        assert_eq!(tstrf_flops(&e, &e), 0.0);
    }
}

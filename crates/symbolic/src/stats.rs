//! nnz / FLOP accounting over symbolic results.
//!
//! Feeds Table 3 (nnz(L+U) and total FLOPs per matrix) and the cost models
//! of the discrete-event scalability simulator.

use crate::fill::FilledPattern;
use pangulu_sparse::CscMatrix;

/// Summary statistics of a symbolic factorisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolicStats {
    /// Matrix order.
    pub n: usize,
    /// nnz of the input matrix.
    pub nnz_a: usize,
    /// nnz of `L + U` (single diagonal copy).
    pub nnz_lu: usize,
    /// Fill ratio `nnz(L+U) / nnz(A)`.
    pub fill_ratio: f64,
    /// Total floating-point operations of the scalar numeric
    /// factorisation: `Σ_k [ |L(:,k)| + 2 |L(:,k)| · |U(k,:)| ]`
    /// (divisions plus multiply-adds of the rank-1 updates).
    pub flops: f64,
}

/// Computes the statistics for a PanguLU-style symmetric fill pattern.
pub fn stats_from_fill(a: &CscMatrix, f: &FilledPattern) -> SymbolicStats {
    let n = f.n;
    // For the symmetric pattern, |U(k, :)| (strict upper row k of U) equals
    // |L(:, k)| (strict lower column k of L).
    let mut flops = 0.0f64;
    for k in 0..n {
        let lk = f.l_col(k).len() as f64;
        flops += lk + 2.0 * lk * lk;
    }
    SymbolicStats {
        n,
        nnz_a: a.nnz(),
        nnz_lu: f.nnz_lu(),
        fill_ratio: f.nnz_lu() as f64 / a.nnz().max(1) as f64,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::symbolic_fill;
    use pangulu_sparse::gen;

    #[test]
    fn dense_matrix_flops_are_cubic() {
        // A fully dense pattern must cost ~2/3 n^3 flops.
        let n = 20;
        let a = gen::random_sparse(n, 1.0, 1);
        let f = symbolic_fill(&a).unwrap();
        let s = stats_from_fill(&a, &f);
        let expect = (0..n)
            .map(|k| {
                let lk = (n - 1 - k) as f64;
                lk + 2.0 * lk * lk
            })
            .sum::<f64>();
        assert_eq!(s.flops, expect);
        assert_eq!(s.nnz_lu, n * n);
    }

    #[test]
    fn tridiagonal_flops_are_linear() {
        let n = 50;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let f = symbolic_fill(&a).unwrap();
        let s = stats_from_fill(&a, &f);
        // Each of the first n-1 columns: 1 div + 2 flops.
        assert_eq!(s.flops, 3.0 * (n - 1) as f64);
        assert_eq!(s.fill_ratio, 1.0);
    }
}

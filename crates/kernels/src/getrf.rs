//! GETRF — in-place sparse LU factorisation of a diagonal block.
//!
//! The block is a square `CscMatrix` whose pattern is the (closed) symbolic
//! pattern; on return it holds the packed factors `L\U`: entries on/above
//! the diagonal are `U`, entries strictly below are `L` (unit diagonal
//! implied).
//!
//! Three variants (Table 1), all left-looking over the columns in
//! ascending order (the SFLU column order) and differing in how an update
//! finds its target:
//! * `C_V1` — a dense working column, scatter/gather ("Direct"
//!   addressing);
//! * `G_V1` — binary search into the column's sparse pattern
//!   ("Bin-search"), no dense buffer;
//! * `G_V2` — SFLU with a dense working column ("Direct"): the same loop
//!   as `C_V1`.
//!
//! A fourth, `D_V1`, is the dense-tile lane of [`crate::tile`] for a
//! completely filled block: `C_V1`'s order on register tiles.
//!
//! The paper runs the `G_V*` kernels as GPU thread teams; here every
//! variant runs on the thread of the task that calls it, and the parallelism
//! is the executor's (workers or ranks), one level only.
//!
//! Static pivoting: pivots with `|p| < pivot_floor` are replaced by
//! `±pivot_floor` (the SuperLU_DIST convention); the replacement count is
//! returned so the solver can report it.

use pangulu_sparse::{collect_runs, CscMatrix, RunSeg, Scalar};

use crate::scratch::{
    axpy_into_runs, find_in_col, gather_zero_runs, run_friendly, scatter_axpy, scatter_runs,
    KernelScratch,
};
use crate::{tile, GetrfVariant};

/// Factorises `a` in place. Returns the number of perturbed pivots; with
/// `pivot_floor == 0` that is the number of zero (or NaN) pivots, left in
/// place, and a nonzero count means the factor is unusable.
///
/// # Panics
/// Panics if an update target is missing from the pattern (violation of
/// the symbolic closure contract).
pub fn getrf<S: Scalar>(
    a: &mut CscMatrix<S>,
    variant: GetrfVariant,
    scratch: &mut KernelScratch<S>,
    pivot_floor: f64,
) -> usize {
    assert!(a.is_square(), "GETRF requires a square block");
    match variant {
        GetrfVariant::CV1 | GetrfVariant::GV2 => getrf_cv1(a, scratch, pivot_floor),
        GetrfVariant::GV1 => getrf_binsearch(a, &mut scratch.runs, pivot_floor),
        GetrfVariant::DV1 => tile::getrf_tile(a, pivot_floor),
    }
}

/// Applies the static-pivot floor; returns 1 if the pivot was perturbed.
/// The floor itself is always an `f64` magnitude; the replacement value is
/// rounded into the working precision. A floor of 0 perturbs nothing: a
/// zero or NaN pivot is counted and left as it is, for the caller to
/// report.
#[inline]
pub(crate) fn apply_floor<S: Scalar>(pivot: &mut S, pivot_floor: f64) -> usize {
    if pivot.abs().to_f64() >= pivot_floor && *pivot != S::ZERO {
        return 0;
    }
    if pivot_floor > 0.0 {
        *pivot =
            if *pivot < S::ZERO { S::from_f64(-pivot_floor) } else { S::from_f64(pivot_floor) };
    }
    1
}

/// `C_V1` / `G_V2`: left-looking with a dense working column. Sources
/// (columns `< j`) live strictly left of the split point, so the borrow
/// split is allocation-free. Each column's part below the diagonal is
/// found once, when the column is pivoted, and read back by every later
/// column it updates.
fn getrf_cv1<S: Scalar>(
    a: &mut CscMatrix<S>,
    scratch: &mut KernelScratch<S>,
    pivot_floor: f64,
) -> usize {
    let n = a.ncols();
    scratch.ensure(n);
    let KernelScratch { dense, runs, splits, .. } = scratch;
    splits.clear();
    let mut perturbed = 0usize;
    let (col_ptr, row_idx, values) = a.parts_mut();
    for j in 0..n {
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        let (left, right) = values.split_at_mut(lo);
        let vals_j = &mut right[..hi - lo];
        let rows_j = &row_idx[lo..hi];
        // Scatter column j (run list found once, reused by the gather).
        collect_runs(rows_j, runs);
        scatter_runs(dense, runs, vals_j);
        // Apply updates from each upper entry k < j in ascending order.
        for &k in rows_j.iter().take_while(|&&k| k < j) {
            let ukj = dense[k];
            if ukj != S::ZERO {
                let (start, end) = (col_ptr[k] + splits[k], col_ptr[k + 1]);
                scatter_axpy(dense, &row_idx[start..end], &left[start..end], ukj);
            }
        }
        // Pivot and scale the lower part.
        let below = rows_j.partition_point(|&i| i <= j);
        splits.push(below);
        let mut pivot = dense[j];
        perturbed += apply_floor(&mut pivot, pivot_floor);
        dense[j] = pivot;
        for &i in &rows_j[below..] {
            dense[i] /= pivot;
        }
        // Gather back and clear.
        gather_zero_runs(dense, runs, vals_j);
    }
    perturbed
}

/// `G_V1`: the SFLU column order with bin-search addressing — each update
/// of column `j` locates its target by searching `j`'s sparse pattern
/// (or a run-mapped slice axpy when the pattern is run-friendly), so no
/// dense working column is needed.
fn getrf_binsearch<S: Scalar>(
    a: &mut CscMatrix<S>,
    runs: &mut Vec<RunSeg>,
    pivot_floor: f64,
) -> usize {
    let n = a.ncols();
    let mut perturbed = 0usize;
    let (col_ptr, row_idx, values) = a.parts_mut();
    for j in 0..n {
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        let (left, right) = values.split_at_mut(lo);
        let vals_j = &mut right[..hi - lo];
        let rows_j = &row_idx[lo..hi];
        collect_runs(rows_j, runs);
        let widened = run_friendly(runs, rows_j.len());
        for (off_k, &k) in rows_j.iter().enumerate() {
            if k >= j {
                break;
            }
            let ukj = vals_j[off_k];
            if ukj == S::ZERO {
                continue;
            }
            let (klo, khi) = (col_ptr[k], col_ptr[k + 1]);
            let rows_k = &row_idx[klo..khi];
            let vals_k = &left[klo..khi];
            let start = rows_k.partition_point(|&i| i <= k);
            if widened {
                axpy_into_runs(runs, vals_j, &rows_k[start..], &vals_k[start..], ukj);
                continue;
            }
            for (&i, &lik) in rows_k[start..].iter().zip(&vals_k[start..]) {
                let pos = find_in_col(rows_j, i)
                    .expect("GETRF update target missing: pattern not closed");
                vals_j[pos] -= lik * ukj;
            }
        }
        let diag_off = find_in_col(rows_j, j).expect("diagonal entry missing");
        let mut pivot = vals_j[diag_off];
        perturbed += apply_floor(&mut pivot, pivot_floor);
        vals_j[diag_off] = pivot;
        for v in &mut vals_j[diag_off + 1..] {
            *v /= pivot;
        }
    }
    perturbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    /// A closed-pattern test block: the filled matrix of a small random A.
    fn closed_block(n: usize, density: f64, seed: u64) -> CscMatrix {
        let a = ensure_diagonal(&gen::random_sparse(n, density, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        f.filled_matrix(&a).unwrap()
    }

    fn check_variant(variant: GetrfVariant) {
        for seed in 0..3 {
            let block = closed_block(24, 0.15, seed);
            let expect = reference::ref_getrf(&block.to_dense());
            let mut got = block.clone();
            let mut scratch = KernelScratch::with_capacity(24);
            let perturbed = getrf(&mut got, variant, &mut scratch, 0.0);
            assert_eq!(perturbed, 0);
            let diff = got.to_dense().max_abs_diff(&expect);
            assert!(diff < 1e-10, "{variant:?} seed {seed}: max diff {diff}");
        }
    }

    #[test]
    fn cv1_matches_dense_reference() {
        check_variant(GetrfVariant::CV1);
    }

    #[test]
    fn gv1_matches_dense_reference() {
        check_variant(GetrfVariant::GV1);
    }

    #[test]
    fn gv2_matches_dense_reference() {
        check_variant(GetrfVariant::GV2);
    }

    #[test]
    fn variants_agree_bitwise_on_dense_block() {
        // A fully dense block: all variants perform identical operation
        // order per column, so results agree to roundoff.
        let block = closed_block(16, 1.0, 7);
        let mut out = Vec::new();
        for v in [GetrfVariant::CV1, GetrfVariant::GV1, GetrfVariant::GV2] {
            let mut b = block.clone();
            let mut s = KernelScratch::with_capacity(16);
            getrf(&mut b, v, &mut s, 0.0);
            out.push(b);
        }
        for w in out.windows(2) {
            assert!(w[0].to_dense().max_abs_diff(&w[1].to_dense()) < 1e-12);
        }
    }

    #[test]
    fn pivot_floor_counts_perturbations() {
        // Diagonal block with an exactly zero pivot in a 1x1 trailing
        // position after elimination: A = [[1, 1], [1, 1]] has U(1,1) = 0.
        let a =
            CscMatrix::from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0, 1.0, 1.0, 1.0])
                .unwrap();
        let mut b = a.clone();
        let mut s = KernelScratch::with_capacity(2);
        let perturbed = getrf(&mut b, GetrfVariant::CV1, &mut s, 1e-8);
        assert_eq!(perturbed, 1);
        assert_eq!(b.get(1, 1).abs(), 1e-8);
    }

    /// Without a floor a zero pivot is counted and left at zero, in every
    /// variant and on the planned replay, and nothing panics.
    #[test]
    fn zero_pivot_without_floor_is_counted_not_perturbed() {
        let a =
            CscMatrix::from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0, 1.0, 1.0, 1.0])
                .unwrap();
        for v in [GetrfVariant::CV1, GetrfVariant::GV1, GetrfVariant::GV2] {
            let mut b = a.clone();
            let mut s = KernelScratch::with_capacity(2);
            assert_eq!(getrf(&mut b, v, &mut s, 0.0), 1, "{v:?}");
            assert_eq!(b.get(1, 1), 0.0, "{v:?}: the zero pivot was perturbed");
        }
        let mut arena = Vec::new();
        let plan = crate::plan::build_getrf_plan(&a, &mut arena).unwrap();
        let mut b = a.clone();
        let mut s = KernelScratch::default();
        assert_eq!(crate::plan::getrf_planned(&mut b, &plan, &arena, &mut s, 0.0), 1);
        assert_eq!(b.get(1, 1), 0.0);
        let mut nan = a.with_constant_values(f64::NAN);
        let mut s = KernelScratch::with_capacity(2);
        assert_eq!(getrf(&mut nan, GetrfVariant::CV1, &mut s, 0.0), 2, "NaN pivots count too");
    }

    #[test]
    fn factor_reconstructs_original() {
        let block = closed_block(20, 0.2, 11);
        let mut f = block.clone();
        let mut s = KernelScratch::with_capacity(20);
        getrf(&mut f, GetrfVariant::CV1, &mut s, 0.0);
        let (l, u) = f.to_dense().split_lu();
        let prod = l.matmul(&u);
        // L*U must equal the original block (pattern is closed, so no
        // dropped fill).
        assert!(prod.max_abs_diff(&block.to_dense()) < 1e-10);
    }
}

//! GETRF — in-place sparse LU factorisation of a diagonal block.
//!
//! The block is a square `CscMatrix` whose pattern is the (closed) symbolic
//! pattern; on return it holds the packed factors `L\U`: entries on/above
//! the diagonal are `U`, entries strictly below are `L` (unit diagonal
//! implied).
//!
//! Three variants (Table 1):
//! * `C_V1` — sequential left-looking columns, dense scatter/gather
//!   ("Direct" addressing);
//! * `G_V1` — the SFLU scheme: columns claimed in order by a team of
//!   workers, each spinning on per-column ready flags ("un-sync"), with
//!   binary-search addressing into the sparse pattern;
//! * `G_V2` — SFLU claiming with per-worker dense buffers ("Direct").
//!
//! Static pivoting: pivots with `|p| < pivot_floor` are replaced by
//! `±pivot_floor` (the SuperLU_DIST convention); the replacement count is
//! returned so the solver can report it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pangulu_sparse::{collect_runs, CscMatrix, Scalar};

use crate::scratch::{
    axpy_into_runs, find_in_col, gather_zero_runs, run_friendly, scatter_axpy, scatter_runs,
    KernelScratch,
};
use crate::GetrfVariant;

/// Number of worker threads the "GPU" (team) kernels use.
///
/// Defaults to the available parallelism; `PANGULU_TEAM` overrides it
/// (tests use this to force the multi-worker code paths on single-core
/// machines, where they would otherwise collapse to the sequential
/// fallback).
pub(crate) fn team_size() -> usize {
    static TEAM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *TEAM.get_or_init(|| {
        std::env::var("PANGULU_TEAM")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
    })
}

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
        GetrfVariant::CV1 => getrf_cv1(a, scratch, pivot_floor),
        GetrfVariant::GV1 => getrf_sflu(a, pivot_floor, false),
        GetrfVariant::GV2 => getrf_sflu(a, pivot_floor, true),
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

/// `C_V1`: sequential left-looking with a dense working column. Sources
/// (columns `< j`) live strictly left of the split point, so the borrow
/// split is allocation-free.
fn getrf_cv1<S: Scalar>(
    a: &mut CscMatrix<S>,
    scratch: &mut KernelScratch<S>,
    pivot_floor: f64,
) -> usize {
    let n = a.ncols();
    scratch.ensure(n);
    let KernelScratch { dense, runs, .. } = scratch;
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
                let (klo, khi) = (col_ptr[k], col_ptr[k + 1]);
                let rows_k = &row_idx[klo..khi];
                let vals_k = &left[klo..khi];
                let start = rows_k.partition_point(|&i| i <= k);
                scatter_axpy(dense, &rows_k[start..], &vals_k[start..], ukj);
            }
        }
        // Pivot and scale the lower part.
        let mut pivot = dense[j];
        perturbed += apply_floor(&mut pivot, pivot_floor);
        dense[j] = pivot;
        for &i in rows_j.iter().skip_while(|&&i| i <= j) {
            dense[i] /= pivot;
        }
        // Gather back and clear.
        gather_zero_runs(dense, runs, vals_j);
    }
    perturbed
}

/// Shared-value-array view for the SFLU workers.
///
/// Safety: column `j`'s value range is written only by the worker that
/// claimed `j`; other workers read it only after `ready[j]` is observed
/// `true` with `Acquire`, which synchronises with the writer's `Release`
/// store. The pattern arrays are never written.
struct SfluShared<'m, S> {
    col_ptr: &'m [usize],
    row_idx: &'m [usize],
    values: *mut S,
}

unsafe impl<S: Scalar> Send for SfluShared<'_, S> {}
unsafe impl<S: Scalar> Sync for SfluShared<'_, S> {}

impl<S: Scalar> SfluShared<'_, S> {
    #[inline]
    fn col_rows(&self, j: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Immutable view of a *finished* column's values.
    #[inline]
    unsafe fn col_vals(&self, j: usize) -> &[S] {
        std::slice::from_raw_parts(
            self.values.add(self.col_ptr[j]),
            self.col_ptr[j + 1] - self.col_ptr[j],
        )
    }

    /// Mutable view of the claimed column's values.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn col_vals_mut(&self, j: usize) -> &mut [S] {
        std::slice::from_raw_parts_mut(
            self.values.add(self.col_ptr[j]),
            self.col_ptr[j + 1] - self.col_ptr[j],
        )
    }
}

/// `G_V1` / `G_V2`: the synchronisation-free SFLU scheme. Workers claim
/// columns in ascending order from an atomic counter; a claimed column
/// spins (with `hint::spin_loop`) until each upper-pattern dependency
/// column is published. Deadlock-free: the lowest claimed-unfinished
/// column only depends on finished columns.
fn getrf_sflu<S: Scalar>(a: &mut CscMatrix<S>, pivot_floor: f64, dense_mapping: bool) -> usize {
    let n = a.ncols();
    let workers = team_size().min(n.max(1));
    if workers <= 1 {
        // Single worker: identical traversal without the atomics.
        let mut scratch = KernelScratch::with_capacity(n);
        return if dense_mapping {
            getrf_cv1(a, &mut scratch, pivot_floor)
        } else {
            getrf_binsearch_seq(a, pivot_floor)
        };
    }

    let col_ptr: Vec<usize> = a.col_ptr().to_vec();
    let row_idx: Vec<usize> = a.row_idx().to_vec();
    let shared =
        SfluShared { col_ptr: &col_ptr, row_idx: &row_idx, values: a.values_mut().as_mut_ptr() };
    let ready: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let next = AtomicUsize::new(0);
    let perturbed = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut dense = if dense_mapping { vec![S::ZERO; n] } else { Vec::new() };
                let mut runs = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= n {
                        break;
                    }
                    let rows_j = shared.col_rows(j);
                    // Safety: we claimed column j.
                    let vals_j = unsafe { shared.col_vals_mut(j) };
                    // Column j's run list, found once and reused across
                    // the k-loop (bin-search) or scatter/gather (dense).
                    collect_runs(rows_j, &mut runs);
                    let widened = !dense_mapping && run_friendly(&runs, rows_j.len());
                    if dense_mapping {
                        scatter_runs(&mut dense, &runs, vals_j);
                    }
                    for (off_k, &k) in rows_j.iter().enumerate() {
                        if k >= j {
                            break;
                        }
                        // Wait for dependency column k to be published.
                        // Spin briefly, then yield: on an oversubscribed
                        // machine the publisher needs the core.
                        let mut spins = 0u32;
                        while !ready[k].load(Ordering::Acquire) {
                            spins += 1;
                            if spins < 64 {
                                std::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                        }
                        let ukj = if dense_mapping { dense[k] } else { vals_j[off_k] };
                        if ukj == S::ZERO {
                            continue;
                        }
                        let rows_k = shared.col_rows(k);
                        // Safety: column k is finished (ready flag).
                        let vals_k = unsafe { shared.col_vals(k) };
                        let start = rows_k.partition_point(|&i| i <= k);
                        if dense_mapping {
                            scatter_axpy(&mut dense, &rows_k[start..], &vals_k[start..], ukj);
                        } else if widened {
                            axpy_into_runs(&runs, vals_j, &rows_k[start..], &vals_k[start..], ukj);
                        } else {
                            for (&i, &lik) in rows_k[start..].iter().zip(&vals_k[start..]) {
                                let pos = find_in_col(rows_j, i)
                                    .expect("GETRF update target missing: pattern not closed");
                                vals_j[pos] -= lik * ukj;
                            }
                        }
                    }
                    // Pivot, scale, publish.
                    let diag_off = find_in_col(rows_j, j).expect("diagonal entry missing");
                    let mut pivot = if dense_mapping { dense[j] } else { vals_j[diag_off] };
                    perturbed.fetch_add(apply_floor(&mut pivot, pivot_floor), Ordering::Relaxed);
                    if dense_mapping {
                        dense[j] = pivot;
                        for &i in &rows_j[diag_off + 1..] {
                            dense[i] /= pivot;
                        }
                        gather_zero_runs(&mut dense, &runs, vals_j);
                    } else {
                        vals_j[diag_off] = pivot;
                        for v in &mut vals_j[diag_off + 1..] {
                            *v /= pivot;
                        }
                    }
                    ready[j].store(true, Ordering::Release);
                }
            });
        }
    });
    perturbed.load(Ordering::Relaxed)
}

/// Sequential bin-search traversal (the 1-worker body of `G_V1`).
fn getrf_binsearch_seq<S: Scalar>(a: &mut CscMatrix<S>, pivot_floor: f64) -> usize {
    let n = a.ncols();
    let mut perturbed = 0usize;
    let mut runs = Vec::new();
    let (col_ptr, row_idx, values) = a.parts_mut();
    for j in 0..n {
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        let (left, right) = values.split_at_mut(lo);
        let vals_j = &mut right[..hi - lo];
        let rows_j = &row_idx[lo..hi];
        collect_runs(rows_j, &mut runs);
        let widened = run_friendly(&runs, rows_j.len());
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
                axpy_into_runs(&runs, vals_j, &rows_k[start..], &vals_k[start..], ukj);
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
        let plan = crate::plan::build_getrf_plan(&a, &mut arena);
        let mut b = a.clone();
        assert_eq!(crate::plan::getrf_planned(&mut b, &plan, &arena, 0.0), 1);
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

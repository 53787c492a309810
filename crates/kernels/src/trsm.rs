//! GESSM and TSTRF — the sparse block triangular solves.
//!
//! * **GESSM** solves `L X = B` where `L` is the unit-lower part of a
//!   factored diagonal block and `B` is a block right of the diagonal
//!   (producing a `U` panel block).
//! * **TSTRF** solves `X U = B` where `U` is the upper part of a factored
//!   diagonal block and `B` is a block below the diagonal (producing an
//!   `L` panel block). It is computed through the transposed system
//!   `Uᵀ Xᵀ = Bᵀ`, a non-unit lower solve, so both operations share one
//!   engine parameterised by the diagonal mode.
//!
//! Each has the five variants of Table 1 (`C_V1` merge, `C_V2` direct,
//! `G_V1` bin-search column teams, `G_V2` bin-search row/dot-product
//! formulation, `G_V3` direct column teams). Columns of the unknown are
//! independent, which is what the "warp-level column" team variants
//! exploit. A sixth, `D_V1`, is the dense-tile lane of [`crate::tile`]
//! for a completely filled factor block and panel block.
//!
//! All writes stay inside `B`'s stored pattern (symbolic closure).

use std::sync::atomic::{AtomicUsize, Ordering};

use pangulu_sparse::{collect_runs, for_each_run, CscMatrix, CsrMatrix, RunSeg, Scalar};

use crate::getrf::team_size;
use crate::scratch::{
    axpy_into_runs, find_in_col, run_friendly, scatter_axpy, scatter_runs, try_direct_axpy,
    KernelScratch,
};
use crate::{tile, TrsmVariant};

/// Solves `L X = B` in place (`B` becomes `X`); `diag_lu` is the packed
/// factor of the diagonal block, of which only the strict lower part is
/// used (unit diagonal implied).
pub fn gessm<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    variant: TrsmVariant,
    scratch: &mut KernelScratch<S>,
) {
    debug_assert_eq!(diag_lu.nrows(), b.nrows(), "GESSM dimension mismatch");
    match variant {
        TrsmVariant::DV1 => tile::gessm_tile(diag_lu, b),
        sparse => lower_solve(diag_lu, None, b, sparse, scratch),
    }
}

/// Solves `X U = B` in place (`B` becomes `X`); `diag_lu` is the packed
/// factor of the diagonal block, of which only the upper part is used.
///
/// Runs natively on the CSC blocks (as PanguLU's TSTRF does), left-looking
/// over the columns of `B`:
/// `X(:,j) = (B(:,j) − Σ_{k<j, U(k,j)≠0} X(:,k)·U(k,j)) / U(j,j)`.
/// Unlike GESSM, the columns are *dependent*, so the team variants use the
/// un-sync claim-in-order scheme (ready flag per column) instead of free
/// column parallelism.
pub fn tstrf<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    variant: TrsmVariant,
    scratch: &mut KernelScratch<S>,
) {
    debug_assert_eq!(diag_lu.ncols(), b.ncols(), "TSTRF dimension mismatch");
    match variant {
        TrsmVariant::CV1 => tstrf_seq(diag_lu, b, TstrfAddr::Merge, scratch),
        TrsmVariant::CV2 => tstrf_seq(diag_lu, b, TstrfAddr::Dense, scratch),
        TrsmVariant::GV1 => tstrf_unsync(diag_lu, b, TstrfAddr::BinSearch),
        TrsmVariant::GV2 => tstrf_unsync(diag_lu, b, TstrfAddr::RowDot),
        TrsmVariant::GV3 => tstrf_unsync(diag_lu, b, TstrfAddr::Dense),
        TrsmVariant::DV1 => tile::tstrf_tile(diag_lu, b),
    }
}

/// Addressing method of the TSTRF column update.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TstrfAddr {
    Merge,
    BinSearch,
    Dense,
    RowDot,
}

/// Upper entries `(k, U(k,j))` with `k < j` and the diagonal `U(j,j)` of
/// the factor's column `j`.
#[inline]
fn upper_of<S: Scalar>(diag_lu: &CscMatrix<S>, j: usize) -> (&[usize], &[S], S) {
    let (rows, vals) = diag_lu.col(j);
    let dpos = rows.partition_point(|&r| r < j);
    debug_assert!(dpos < rows.len() && rows[dpos] == j, "diagonal entry missing");
    (&rows[..dpos], &vals[..dpos], vals[dpos])
}

/// One TSTRF column update: `col_j = (col_j − Σ_k col_k · U(k,j)) / U(j,j)`.
/// `get_col(k)` returns the (already solved) source column `k` of `X`.
#[allow(clippy::too_many_arguments)]
fn tstrf_col<'a, S: Scalar>(
    uk_rows: &[usize],
    uk_vals: &[S],
    ujj: S,
    rows_j: &[usize],
    vals_j: &mut [S],
    get_col: impl Fn(usize) -> (&'a [usize], &'a [S]),
    addr: TstrfAddr,
    dense: &mut [S],
    runs: &mut Vec<RunSeg>,
) {
    match addr {
        TstrfAddr::Dense => {
            collect_runs(rows_j, runs);
            scatter_runs(dense, runs, vals_j);
            for (&k, &ukj) in uk_rows.iter().zip(uk_vals) {
                if ukj == S::ZERO {
                    continue;
                }
                let (krows, kvals) = get_col(k);
                scatter_axpy(dense, krows, kvals, ukj);
            }
            for r in runs.iter() {
                let d = &mut dense[r.start..r.start + r.len];
                for (v, dv) in vals_j[r.off..r.off + r.len].iter_mut().zip(d.iter_mut()) {
                    *v = *dv / ujj;
                    *dv = S::ZERO;
                }
            }
        }
        TstrfAddr::Merge => {
            // The target column is fixed across the whole k-loop, so its
            // run list is found once and reused for every source column.
            collect_runs(rows_j, runs);
            let widened = run_friendly(runs, rows_j.len());
            for (&k, &ukj) in uk_rows.iter().zip(uk_vals) {
                if ukj == S::ZERO {
                    continue;
                }
                let (krows, kvals) = get_col(k);
                if widened {
                    axpy_into_runs(runs, vals_j, krows, kvals, ukj);
                    continue;
                }
                let mut cur = 0usize;
                for (&r, &x) in krows.iter().zip(kvals) {
                    while cur < rows_j.len() && rows_j[cur] < r {
                        cur += 1;
                    }
                    debug_assert!(
                        cur < rows_j.len() && rows_j[cur] == r,
                        "TSTRF update target missing: pattern not closed"
                    );
                    vals_j[cur] -= x * ukj;
                    cur += 1;
                }
            }
            for v in vals_j.iter_mut() {
                *v /= ujj;
            }
        }
        TstrfAddr::BinSearch => {
            for (&k, &ukj) in uk_rows.iter().zip(uk_vals) {
                if ukj == S::ZERO {
                    continue;
                }
                let (krows, kvals) = get_col(k);
                for (&r, &x) in krows.iter().zip(kvals) {
                    let pos = find_in_col(rows_j, r)
                        .expect("TSTRF update target missing: pattern not closed");
                    vals_j[pos] -= x * ukj;
                }
            }
            for v in vals_j.iter_mut() {
                *v /= ujj;
            }
        }
        TstrfAddr::RowDot => {
            // Row-oriented: each x(r, j) gathers its own updates by
            // searching row r in the source columns.
            for (off, &r) in rows_j.iter().enumerate() {
                let mut acc = vals_j[off];
                for (&k, &ukj) in uk_rows.iter().zip(uk_vals) {
                    if ukj == S::ZERO {
                        continue;
                    }
                    let (krows, kvals) = get_col(k);
                    if let Ok(p) = krows.binary_search(&r) {
                        acc -= kvals[p] * ukj;
                    }
                }
                vals_j[off] = acc / ujj;
            }
        }
    }
}

/// Sequential TSTRF (`C_V1` merge / `C_V2` dense).
fn tstrf_seq<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    addr: TstrfAddr,
    scratch: &mut KernelScratch<S>,
) {
    scratch.ensure(b.nrows());
    let KernelScratch { dense, runs, .. } = scratch;
    let (col_ptr, row_idx, values) = b.parts_mut();
    let ncols = col_ptr.len() - 1;
    for j in 0..ncols {
        let (uk_rows, uk_vals, ujj) = upper_of(diag_lu, j);
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        // Split the value array at the column boundary: sources are all at
        // columns < j, strictly left of `lo`.
        let (left, right) = values.split_at_mut(lo);
        let vals_j = &mut right[..hi - lo];
        let get_col = |k: usize| -> (&[usize], &[S]) {
            let (klo, khi) = (col_ptr[k], col_ptr[k + 1]);
            (&row_idx[klo..khi], &left[klo..khi])
        };
        tstrf_col(uk_rows, uk_vals, ujj, &row_idx[lo..hi], vals_j, get_col, addr, dense, runs);
    }
}

/// Un-sync TSTRF (`G_V*`): workers claim columns in ascending order and
/// spin on per-column ready flags for their dependencies — the same
/// synchronisation-free pattern as the SFLU GETRF.
fn tstrf_unsync<S: Scalar>(diag_lu: &CscMatrix<S>, b: &mut CscMatrix<S>, addr: TstrfAddr) {
    let nrows = b.nrows();
    let ncols = b.ncols();
    let workers = team_size().min(ncols.max(1));
    if workers <= 1 {
        let mut scratch = KernelScratch::with_capacity(nrows);
        return tstrf_seq(diag_lu, b, addr, &mut scratch);
    }
    let (col_ptr, row_idx, values) = b.parts_mut();
    let vptr = SharedVals(values.as_mut_ptr());
    let ready: Vec<std::sync::atomic::AtomicBool> =
        (0..ncols).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut dense =
                    if addr == TstrfAddr::Dense { vec![S::ZERO; nrows] } else { Vec::new() };
                let mut runs = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= ncols {
                        break;
                    }
                    let (uk_rows, uk_vals, ujj) = upper_of(diag_lu, j);
                    // Wait for every dependency column to be published.
                    for &k in uk_rows {
                        let mut spins = 0u32;
                        while !ready[k].load(Ordering::Acquire) {
                            spins += 1;
                            if spins < 64 {
                                std::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                    let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
                    // Safety: column j is claimed exactly once; source
                    // columns are read only after their Release store.
                    let vals_j =
                        unsafe { std::slice::from_raw_parts_mut(vptr.get().add(lo), hi - lo) };
                    let get_col = |k: usize| -> (&[usize], &[S]) {
                        let (klo, khi) = (col_ptr[k], col_ptr[k + 1]);
                        let kv =
                            unsafe { std::slice::from_raw_parts(vptr.get().add(klo), khi - klo) };
                        (&row_idx[klo..khi], kv)
                    };
                    tstrf_col(
                        uk_rows,
                        uk_vals,
                        ujj,
                        &row_idx[lo..hi],
                        vals_j,
                        get_col,
                        addr,
                        &mut dense,
                        &mut runs,
                    );
                    ready[j].store(true, Ordering::Release);
                }
            });
        }
    });
}

/// Forward substitution engine: solves `(L or D+L) X = B` in place on `B`.
/// `diag` of `None` means unit diagonal (GESSM); `Some(d)` divides by
/// `d[k]` before propagating (TSTRF's transposed system).
fn lower_solve<S: Scalar>(
    l: &CscMatrix<S>,
    diag: Option<&[S]>,
    b: &mut CscMatrix<S>,
    variant: TrsmVariant,
    scratch: &mut KernelScratch<S>,
) {
    match variant {
        TrsmVariant::CV1 => {
            for c in 0..b.ncols() {
                let (rows_c, vals_c) = b.col_mut(c);
                solve_col_merge(l, diag, rows_c, vals_c);
            }
        }
        TrsmVariant::CV2 => {
            scratch.ensure(b.nrows());
            for c in 0..b.ncols() {
                let (rows_c, vals_c) = b.col_mut(c);
                solve_col_direct(l, diag, rows_c, vals_c, &mut scratch.dense);
            }
        }
        TrsmVariant::GV1 => {
            parallel_columns(b, 0, |rows_c, vals_c, _| solve_col_binsearch(l, diag, rows_c, vals_c))
        }
        TrsmVariant::GV2 => {
            // Row/dot-product formulation needs the factor by rows.
            let l_csr = l.to_csr();
            parallel_columns(b, 0, |rows_c, vals_c, _| solve_col_dot(&l_csr, diag, rows_c, vals_c))
        }
        TrsmVariant::GV3 => {
            let nrows = b.nrows();
            parallel_columns(b, nrows, |rows_c, vals_c, dense| {
                solve_col_direct(l, diag, rows_c, vals_c, dense)
            })
        }
        TrsmVariant::DV1 => unreachable!("gessm dispatches the dense-tile lane itself"),
    }
}

/// Strict-lower slice of column `k` of the factor.
#[inline]
fn strict_lower<S: Scalar>(l: &CscMatrix<S>, k: usize) -> (&[usize], &[S]) {
    let (rows, vals) = l.col(k);
    let start = rows.partition_point(|&i| i <= k);
    (&rows[start..], &vals[start..])
}

/// `C_V1`: merge addressing — two-pointer walks between the factor column
/// and the unknown column (both sorted).
fn solve_col_merge<S: Scalar>(
    l: &CscMatrix<S>,
    diag: Option<&[S]>,
    rows_c: &[usize],
    vals_c: &mut [S],
) {
    for p in 0..rows_c.len() {
        let k = rows_c[p];
        if let Some(d) = diag {
            vals_c[p] /= d[k];
        }
        let xk = vals_c[p];
        if xk == S::ZERO {
            continue;
        }
        let (lrows, lvals) = strict_lower(l, k);
        let (tail_rows, tail_vals) = (&rows_c[p + 1..], &mut vals_c[p + 1..]);
        if try_direct_axpy(tail_rows, tail_vals, lrows, lvals, xk) {
            continue;
        }
        let mut cur = 0usize;
        for (&i, &lik) in lrows.iter().zip(lvals) {
            while cur < tail_rows.len() && tail_rows[cur] < i {
                cur += 1;
            }
            debug_assert!(
                cur < tail_rows.len() && tail_rows[cur] == i,
                "trsm update target missing: pattern not closed"
            );
            tail_vals[cur] -= lik * xk;
            cur += 1;
        }
    }
}

/// `C_V2` / `G_V3` core: direct addressing through a dense buffer.
fn solve_col_direct<S: Scalar>(
    l: &CscMatrix<S>,
    diag: Option<&[S]>,
    rows_c: &[usize],
    vals_c: &mut [S],
    dense: &mut [S],
) {
    for_each_run(rows_c, |r| {
        dense[r.start..r.start + r.len].copy_from_slice(&vals_c[r.off..r.off + r.len]);
    });
    for &k in rows_c {
        if let Some(d) = diag {
            dense[k] /= d[k];
        }
        let xk = dense[k];
        if xk == S::ZERO {
            continue;
        }
        let (lrows, lvals) = strict_lower(l, k);
        scatter_axpy(dense, lrows, lvals, xk);
    }
    for_each_run(rows_c, |r| {
        let d = &mut dense[r.start..r.start + r.len];
        vals_c[r.off..r.off + r.len].copy_from_slice(d);
        d.fill(S::ZERO);
    });
}

/// `G_V1` core: bin-search addressing within the column.
fn solve_col_binsearch<S: Scalar>(
    l: &CscMatrix<S>,
    diag: Option<&[S]>,
    rows_c: &[usize],
    vals_c: &mut [S],
) {
    for p in 0..rows_c.len() {
        let k = rows_c[p];
        if let Some(d) = diag {
            vals_c[p] /= d[k];
        }
        let xk = vals_c[p];
        if xk == S::ZERO {
            continue;
        }
        let (lrows, lvals) = strict_lower(l, k);
        for (&i, &lik) in lrows.iter().zip(lvals) {
            let pos = find_in_col(&rows_c[p + 1..], i)
                .expect("trsm update target missing: pattern not closed");
            vals_c[p + 1 + pos] -= lik * xk;
        }
    }
}

/// `G_V2` core: dot-product (row-oriented) formulation. Each unknown
/// `x_i` is computed as `(b_i − Σ_{k<i} L(i,k)·x_k) / d_i` by scanning the
/// factor's row `i` and binary-searching `x_k` in the column pattern;
/// entries absent from the pattern are structural zeros and contribute
/// nothing.
fn solve_col_dot<S: Scalar>(
    l_csr: &CsrMatrix<S>,
    diag: Option<&[S]>,
    rows_c: &[usize],
    vals_c: &mut [S],
) {
    for p in 0..rows_c.len() {
        let i = rows_c[p];
        let mut acc = vals_c[p];
        let (lcols, lvals) = l_csr.row(i);
        let end = lcols.partition_point(|&k| k < i);
        for (&k, &lik) in lcols[..end].iter().zip(&lvals[..end]) {
            if let Some(pos) = find_in_col(&rows_c[..p], k) {
                acc -= lik * vals_c[pos];
            }
        }
        vals_c[p] = match diag {
            Some(d) => acc / d[i],
            None => acc,
        };
    }
}

/// Runs `f(rows, vals, dense)` once per column of `b`, claiming columns
/// from an atomic counter across a worker team. Each worker gets a private
/// dense buffer of `dense_len` zeros. Columns are disjoint value ranges,
/// so the raw-pointer writes are race-free.
fn parallel_columns<S: Scalar, F>(b: &mut CscMatrix<S>, dense_len: usize, f: F)
where
    F: Fn(&[usize], &mut [S], &mut [S]) + Sync,
{
    let ncols = b.ncols();
    let workers = team_size().min(ncols.max(1));
    let (col_ptr, row_idx, values) = b.parts_mut();
    if workers <= 1 {
        let mut dense = vec![S::ZERO; dense_len];
        for c in 0..ncols {
            let (lo, hi) = (col_ptr[c], col_ptr[c + 1]);
            f(&row_idx[lo..hi], &mut values[lo..hi], &mut dense);
        }
        return;
    }
    let vptr = SharedVals(values.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut dense = vec![S::ZERO; dense_len];
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= ncols {
                        break;
                    }
                    let (lo, hi) = (col_ptr[c], col_ptr[c + 1]);
                    // Safety: column c is claimed by exactly one worker and
                    // columns are disjoint ranges of the value array.
                    let vals_c =
                        unsafe { std::slice::from_raw_parts_mut(vptr.get().add(lo), hi - lo) };
                    f(&row_idx[lo..hi], vals_c, &mut dense);
                }
            });
        }
    });
}

struct SharedVals<S>(*mut S);
unsafe impl<S: Scalar> Send for SharedVals<S> {}
unsafe impl<S: Scalar> Sync for SharedVals<S> {}
impl<S> SharedVals<S> {
    fn get(&self) -> *mut S {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getrf::getrf;
    use crate::reference;
    use crate::GetrfVariant;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    const VARIANTS: [TrsmVariant; 5] =
        [TrsmVariant::CV1, TrsmVariant::CV2, TrsmVariant::GV1, TrsmVariant::GV2, TrsmVariant::GV3];

    /// Builds a factored diagonal block and compatible closed off-diagonal
    /// blocks from the fill pattern of a 2x2-block test matrix.
    fn setup(seed: u64) -> (CscMatrix, CscMatrix, CscMatrix) {
        let nb = 14;
        let a = ensure_diagonal(&gen::random_sparse(2 * nb, 0.2, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        let diag = filled.sub_matrix(0..nb, 0..nb);
        let upper = filled.sub_matrix(0..nb, nb..2 * nb); // GESSM target
        let lower = filled.sub_matrix(nb..2 * nb, 0..nb); // TSTRF target
        let mut lu = diag;
        let mut s = KernelScratch::with_capacity(nb);
        getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);
        (lu, upper, lower)
    }

    #[test]
    fn gessm_variants_match_reference() {
        for seed in 0..3 {
            let (lu, upper, _) = setup(seed);
            let expect = reference::ref_gessm(&lu.to_dense(), &upper.to_dense());
            for v in VARIANTS {
                let mut b = upper.clone();
                let mut s = KernelScratch::with_capacity(b.nrows());
                gessm(&lu, &mut b, v, &mut s);
                let diff = b.to_dense().max_abs_diff(&expect);
                assert!(diff < 1e-10, "GESSM {v:?} seed {seed}: diff {diff}");
            }
        }
    }

    #[test]
    fn tstrf_variants_match_reference() {
        for seed in 0..3 {
            let (lu, _, lower) = setup(seed);
            let expect = reference::ref_tstrf(&lu.to_dense(), &lower.to_dense());
            for v in VARIANTS {
                let mut b = lower.clone();
                let mut s = KernelScratch::with_capacity(b.ncols());
                tstrf(&lu, &mut b, v, &mut s);
                let diff = b.to_dense().max_abs_diff(&expect);
                assert!(diff < 1e-10, "TSTRF {v:?} seed {seed}: diff {diff}");
            }
        }
    }

    #[test]
    fn gessm_then_l_multiply_recovers_b() {
        let (lu, upper, _) = setup(9);
        let mut x = upper.clone();
        let mut s = KernelScratch::with_capacity(x.nrows());
        gessm(&lu, &mut x, TrsmVariant::CV1, &mut s);
        let (l, _) = lu.to_dense().split_lu();
        let back = l.matmul(&x.to_dense());
        assert!(back.max_abs_diff(&upper.to_dense()) < 1e-10);
    }

    #[test]
    fn tstrf_then_u_multiply_recovers_b() {
        let (lu, _, lower) = setup(5);
        let mut x = lower.clone();
        let mut s = KernelScratch::with_capacity(x.ncols());
        tstrf(&lu, &mut x, TrsmVariant::CV1, &mut s);
        let (_, u) = lu.to_dense().split_lu();
        let back = x.to_dense().matmul(&u);
        assert!(back.max_abs_diff(&lower.to_dense()) < 1e-10);
    }

    #[test]
    fn empty_block_is_noop() {
        let (lu, _, _) = setup(1);
        let mut b = CscMatrix::zeros(lu.nrows(), 6);
        let mut s = KernelScratch::with_capacity(lu.nrows());
        for v in VARIANTS {
            gessm(&lu, &mut b, v, &mut s);
            assert_eq!(b.nnz(), 0);
        }
    }
}

//! SSSSM — the Schur-complement update `C ← C − A·B` on sparse blocks.
//!
//! `A` is an L-panel block `(i, k)`, `B` a U-panel block `(k, j)`, and `C`
//! the target block `(i, j)`. The symbolic closure guarantees every
//! product entry lands in `C`'s stored pattern, which is what lets
//! PanguLU run the Schur complement **in place on the original blocks** —
//! no gather/scatter of a dense workspace as in SuperLU_DIST (paper §5.4).
//!
//! Four variants (Table 1):
//! * `C_V1` — direct addressing, sequential, dense mapping of the result
//!   column, with columns visited in approximately equal-FLOP chunks;
//! * `C_V2` — bin-search addressing with an adaptive per-column switch to
//!   merge walks when the column is update-heavy ("split-bin");
//! * `G_V1` — bin-search addressing, column teams with the same adaptive
//!   per-column strategy ("adaptive multi-level");
//! * `G_V2` — direct addressing, column teams with per-worker dense
//!   buffers ("warp-level column").
//!
//! A fifth, `D_V1`, is not in the table: the dense-tile lane of
//! [`crate::tile`] for updates whose target block is completely filled.

use pangulu_sparse::{collect_runs, CscMatrix, RunSeg, Scalar};

use crate::scratch::{
    axpy_into_runs, find_in_col, gather_zero_runs, run_friendly, scatter_axpy, scatter_runs,
    KernelScratch,
};
use crate::{tile, SsssmVariant};

/// Per-column updates above this count switch `C_V2`/`G_V1` from
/// bin-search to merge walks.
const SPLIT_BIN_THRESHOLD: usize = 32;

/// Computes `C ← C − A·B` in place on `C`.
// Kept out of line: inlined into an executor's task loop, the
// scatter/axpy loops lose their vectorised form in whichever scalar
// instance exhausts the inliner's budget (measured on kkt: SSSSM time
// moves 6-12 % between f64 and f32 across otherwise equivalent builds).
#[inline(never)]
pub fn ssssm<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &mut CscMatrix<S>,
    variant: SsssmVariant,
    scratch: &mut KernelScratch<S>,
) {
    debug_assert_eq!(a.ncols(), b.nrows(), "SSSSM inner dimension mismatch");
    debug_assert_eq!(c.nrows(), a.nrows(), "SSSSM row mismatch");
    debug_assert_eq!(c.ncols(), b.ncols(), "SSSSM col mismatch");
    match variant {
        SsssmVariant::CV1 => {
            scratch.ensure(c.nrows());
            let KernelScratch { dense, runs, .. } = scratch;
            for j in 0..c.ncols() {
                let (brows, bvals) = b.col(j);
                if brows.is_empty() {
                    continue;
                }
                let (crows, cvals) = c.col_mut(j);
                update_col_dense(a, brows, bvals, crows, cvals, dense, runs);
            }
        }
        SsssmVariant::CV2 => {
            for j in 0..c.ncols() {
                let (brows, bvals) = b.col(j);
                let (crows, cvals) = c.col_mut(j);
                update_col_adaptive(a, brows, bvals, crows, cvals, &mut scratch.runs);
            }
        }
        SsssmVariant::GV1 => {
            parallel_cols(b, c, 0, |brows, bvals, crows, cvals, _, runs| {
                update_col_adaptive(a, brows, bvals, crows, cvals, runs)
            });
        }
        SsssmVariant::GV2 => {
            let nrows = c.nrows();
            parallel_cols(b, c, nrows, |brows, bvals, crows, cvals, dense, runs| {
                update_col_dense(a, brows, bvals, crows, cvals, dense, runs)
            });
        }
        SsssmVariant::DV1 => tile::ssssm_tile(a, b, c, scratch),
    }
}

/// One pending update in a same-target batch: `C ← C − A·B` plus the
/// per-update metadata the kernel meter records.
#[derive(Debug, Clone, Copy)]
pub struct SsssmUpdate<'a, S = f64> {
    /// L-panel operand `(i, k)`.
    pub a: &'a CscMatrix<S>,
    /// U-panel operand `(k, j)`.
    pub b: &'a CscMatrix<S>,
    /// The variant the selector chose for this update. A singleton batch
    /// runs it; wider batches fuse into the direct-addressing pass but
    /// still tally under this variant, keeping the selector's decision
    /// observable.
    pub variant: SsssmVariant,
    /// Model FLOPs, pre-computed by the scheduler for variant selection.
    pub model_flops: f64,
}

/// Applies a batch of updates `C ← C − A_m·B_m` (same target `C`, batch
/// order) in **one** scatter → multi-axpy → gather pass per column,
/// instead of re-scattering the C column for every update.
///
/// Bitwise contract: the result is identical to applying the updates one
/// at a time in batch order, whatever variants the selector chose. Every
/// variant performs the same `c -= a_ik * b_kj` subtractions in the same
/// order (ascending `k` within an update, ascending row within a column);
/// the dense scatter and gather move values without arithmetic; and the
/// per-entry zero-skips can only diverge on a target value of `-0.0`,
/// which the factorisation never stores (fill starts at `+0.0` and the
/// kernels only subtract finite products). `tests/batched_ssssm.rs` holds
/// the runtime to this across grids and fault seeds.
///
/// On a full target every column already is the dense buffer, so there is
/// nothing to scatter or gather: each update is applied in batch order
/// straight on the value array — through the tile when routed to it
/// (`D_V1` implies a full target, the routing contract), through `C_V1`
/// otherwise, which updates full columns in place — one-at-a-time
/// application itself.
pub fn ssssm_batch<S: Scalar>(
    updates: &[SsssmUpdate<'_, S>],
    c: &mut CscMatrix<S>,
    scratch: &mut KernelScratch<S>,
) {
    if let [u] = updates {
        return ssssm(u.a, u.b, c, u.variant, scratch);
    }
    for u in updates {
        debug_assert_eq!(u.a.ncols(), u.b.nrows(), "SSSSM inner dimension mismatch");
        debug_assert_eq!(c.nrows(), u.a.nrows(), "SSSSM row mismatch");
        debug_assert_eq!(c.ncols(), u.b.ncols(), "SSSSM col mismatch");
    }
    if tile::is_full(c) {
        for u in updates {
            let direct = match u.variant {
                SsssmVariant::DV1 => SsssmVariant::DV1,
                _ => SsssmVariant::CV1,
            };
            ssssm(u.a, u.b, c, direct, scratch);
        }
        return;
    }
    scratch.ensure(c.nrows());
    let KernelScratch { dense, runs, .. } = scratch;
    for j in 0..c.ncols() {
        if updates.iter().all(|u| u.b.col_nnz(j) == 0) {
            continue;
        }
        let (crows, cvals) = c.col_mut(j);
        if crows.is_empty() {
            continue;
        }
        collect_runs(crows, runs);
        scatter_runs(dense, runs, cvals);
        for u in updates {
            let (brows, bvals) = u.b.col(j);
            for (&k, &bkj) in brows.iter().zip(bvals) {
                if bkj == S::ZERO {
                    continue;
                }
                let (arows, avals) = u.a.col(k);
                scatter_axpy(dense, arows, avals, bkj);
            }
        }
        gather_zero_runs(dense, runs, cvals);
    }
}

/// The `C_V1` axpys of one column applied in place on a **full** target
/// column: the position of row `r` is `r`, so there is no run list to
/// collect, no scatter and no gather — the same subtractions in the same
/// order. A plain indexed loop (one contiguous slice loop when `A(:, k)`
/// is full too): detecting runs per `A` column costs more than it saves
/// on the short runs sparse operands have (docs/PERFORMANCE.md).
#[inline]
fn update_full_col<S: Scalar>(a: &CscMatrix<S>, brows: &[usize], bvals: &[S], cvals: &mut [S]) {
    for (&k, &bkj) in brows.iter().zip(bvals) {
        if bkj == S::ZERO {
            continue;
        }
        let (arows, avals) = a.col(k);
        if arows.len() == cvals.len() {
            for (c, &aik) in cvals.iter_mut().zip(avals) {
                *c -= aik * bkj;
            }
        } else {
            for (&r, &aik) in arows.iter().zip(avals) {
                cvals[r] -= aik * bkj;
            }
        }
    }
}

/// Direct addressing: scatter the C column into a dense buffer, apply all
/// sparse axpys, gather back. The column's run list is found once and
/// reused by scatter and gather (one `copy_from_slice` per segment). A
/// full column is its own dense buffer and is updated in place.
fn update_col_dense<S: Scalar>(
    a: &CscMatrix<S>,
    brows: &[usize],
    bvals: &[S],
    crows: &[usize],
    cvals: &mut [S],
    dense: &mut [S],
    runs: &mut Vec<RunSeg>,
) {
    if brows.is_empty() || crows.is_empty() {
        return;
    }
    if crows.len() == a.nrows() {
        return update_full_col(a, brows, bvals, cvals);
    }
    collect_runs(crows, runs);
    scatter_runs(dense, runs, cvals);
    for (&k, &bkj) in brows.iter().zip(bvals) {
        if bkj == S::ZERO {
            continue;
        }
        let (arows, avals) = a.col(k);
        scatter_axpy(dense, arows, avals, bkj);
    }
    gather_zero_runs(dense, runs, cvals);
}

/// Bin-search addressing with the adaptive split-bin switch: run-friendly
/// target columns (single run, or runs averaging two-plus entries) use
/// run-mapped slice axpys against the run list found once per column;
/// among the rest, columns with many updates use merge walks (linear in
/// the two patterns) and light columns per-entry binary search. The
/// choice only changes how target positions are located, never the
/// arithmetic, so all three paths are bitwise identical.
fn update_col_adaptive<S: Scalar>(
    a: &CscMatrix<S>,
    brows: &[usize],
    bvals: &[S],
    crows: &[usize],
    cvals: &mut [S],
    runs: &mut Vec<RunSeg>,
) {
    if brows.is_empty() || crows.is_empty() {
        return;
    }
    collect_runs(crows, runs);
    if run_friendly(runs, crows.len()) {
        for (&k, &bkj) in brows.iter().zip(bvals) {
            if bkj == S::ZERO {
                continue;
            }
            let (arows, avals) = a.col(k);
            axpy_into_runs(runs, cvals, arows, avals, bkj);
        }
        return;
    }
    let updates: usize = brows.iter().map(|&k| a.col_nnz(k)).sum();
    if updates > SPLIT_BIN_THRESHOLD * brows.len() {
        update_col_merge(a, brows, bvals, crows, cvals);
    } else {
        update_col_binsearch(a, brows, bvals, crows, cvals);
    }
}

/// Pure bin-search addressing.
fn update_col_binsearch<S: Scalar>(
    a: &CscMatrix<S>,
    brows: &[usize],
    bvals: &[S],
    crows: &[usize],
    cvals: &mut [S],
) {
    for (&k, &bkj) in brows.iter().zip(bvals) {
        if bkj == S::ZERO {
            continue;
        }
        let (arows, avals) = a.col(k);
        for (&i, &aik) in arows.iter().zip(avals) {
            if aik == S::ZERO {
                continue;
            }
            let pos =
                find_in_col(crows, i).expect("SSSSM update target missing: pattern not closed");
            cvals[pos] -= aik * bkj;
        }
    }
}

/// Merge addressing: walk the sorted A column and C column together.
fn update_col_merge<S: Scalar>(
    a: &CscMatrix<S>,
    brows: &[usize],
    bvals: &[S],
    crows: &[usize],
    cvals: &mut [S],
) {
    for (&k, &bkj) in brows.iter().zip(bvals) {
        if bkj == S::ZERO {
            continue;
        }
        let (arows, avals) = a.col(k);
        let mut cur = 0usize;
        for (&i, &aik) in arows.iter().zip(avals) {
            while cur < crows.len() && crows[cur] < i {
                cur += 1;
            }
            debug_assert!(
                cur < crows.len() && crows[cur] == i,
                "SSSSM update target missing: pattern not closed"
            );
            cvals[cur] -= aik * bkj;
            cur += 1;
        }
    }
}

/// Column-team driver: claims columns of `c` (paired with the same column
/// of `b`) from an atomic counter across a worker team, giving each worker
/// a private dense buffer. Value ranges per column are disjoint, so the
/// raw-pointer writes are race-free.
fn parallel_cols<S: Scalar, F>(b: &CscMatrix<S>, c: &mut CscMatrix<S>, dense_len: usize, f: F)
where
    F: Fn(&[usize], &[S], &[usize], &mut [S], &mut [S], &mut Vec<RunSeg>) + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ncols = c.ncols();
    let workers = crate::getrf::team_size().min(ncols.max(1));
    let (col_ptr, row_idx, values) = c.parts_mut();
    if workers <= 1 {
        let mut dense = vec![S::ZERO; dense_len];
        let mut runs = Vec::new();
        for j in 0..ncols {
            let (brows, bvals) = b.col(j);
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            f(brows, bvals, &row_idx[lo..hi], &mut values[lo..hi], &mut dense, &mut runs);
        }
        return;
    }
    struct SharedVals<S>(*mut S);
    unsafe impl<S: Scalar> Send for SharedVals<S> {}
    unsafe impl<S: Scalar> Sync for SharedVals<S> {}
    impl<S> SharedVals<S> {
        fn get(&self) -> *mut S {
            self.0
        }
    }
    let vptr = SharedVals(values.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut dense = vec![S::ZERO; dense_len];
                let mut runs = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= ncols {
                        break;
                    }
                    let (brows, bvals) = b.col(j);
                    let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
                    // Safety: column j is claimed by exactly one worker and
                    // columns are disjoint value ranges.
                    let cvals =
                        unsafe { std::slice::from_raw_parts_mut(vptr.get().add(lo), hi - lo) };
                    f(brows, bvals, &row_idx[lo..hi], cvals, &mut dense, &mut runs);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getrf::getrf;
    use crate::reference;
    use crate::trsm::{gessm, tstrf};
    use crate::{GetrfVariant, TrsmVariant};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    const VARIANTS: [SsssmVariant; 4] =
        [SsssmVariant::CV1, SsssmVariant::CV2, SsssmVariant::GV1, SsssmVariant::GV2];

    /// Builds a full 2x2-block scenario: factor (0,0), solve the panels,
    /// then Schur-update block (1,1).
    fn setup(seed: u64) -> (CscMatrix, CscMatrix, CscMatrix) {
        let nb = 16;
        let a = ensure_diagonal(&gen::random_sparse(2 * nb, 0.2, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        let mut lu = filled.sub_matrix(0..nb, 0..nb);
        let mut upper = filled.sub_matrix(0..nb, nb..2 * nb);
        let mut lower = filled.sub_matrix(nb..2 * nb, 0..nb);
        let tail = filled.sub_matrix(nb..2 * nb, nb..2 * nb);
        let mut s = KernelScratch::with_capacity(nb);
        getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);
        gessm(&lu, &mut upper, TrsmVariant::CV1, &mut s);
        tstrf(&lu, &mut lower, TrsmVariant::CV1, &mut s);
        (lower, upper, tail)
    }

    #[test]
    fn all_variants_match_dense_reference() {
        for seed in 0..3 {
            let (a, b, c0) = setup(seed);
            let mut expect = c0.to_dense();
            reference::ref_ssssm(&a.to_dense(), &b.to_dense(), &mut expect);
            for v in VARIANTS {
                let mut c = c0.clone();
                let mut s = KernelScratch::with_capacity(c.nrows());
                ssssm(&a, &b, &mut c, v, &mut s);
                let diff = c.to_dense().max_abs_diff(&expect);
                assert!(diff < 1e-10, "SSSSM {v:?} seed {seed}: diff {diff}");
            }
        }
    }

    #[test]
    fn zero_b_is_noop() {
        let (a, b, c0) = setup(4);
        let zb = b.with_constant_values(0.0);
        for v in VARIANTS {
            let mut c = c0.clone();
            let mut s = KernelScratch::with_capacity(c.nrows());
            ssssm(&a, &zb, &mut c, v, &mut s);
            assert_eq!(c.values(), c0.values(), "{v:?} modified C with zero B");
        }
    }

    /// A fused batch is bitwise-equal to one-at-a-time application, for
    /// every per-update variant choice (the runtime mixes them).
    #[test]
    fn batch_matches_sequential_bitwise() {
        for seed in 0..3 {
            let (a, b, c0) = setup(seed);
            let (a2, b2, _) = setup(seed + 100);
            for (v1, v2) in [
                (SsssmVariant::CV1, SsssmVariant::CV1),
                (SsssmVariant::CV2, SsssmVariant::GV2),
                (SsssmVariant::GV1, SsssmVariant::CV2),
            ] {
                let mut seq = c0.clone();
                let mut s = KernelScratch::with_capacity(seq.nrows());
                ssssm(&a, &b, &mut seq, v1, &mut s);
                ssssm(&a2, &b2, &mut seq, v2, &mut s);

                let mut fused = c0.clone();
                let updates = [
                    SsssmUpdate { a: &a, b: &b, variant: v1, model_flops: 0.0 },
                    SsssmUpdate { a: &a2, b: &b2, variant: v2, model_flops: 0.0 },
                ];
                ssssm_batch(&updates, &mut fused, &mut s);
                assert_eq!(
                    seq.values(),
                    fused.values(),
                    "seed {seed} variants {v1:?}+{v2:?}: fused batch drifted"
                );
            }
        }
    }

    /// Width-1 batches run the selected variant itself; empty batches are
    /// no-ops.
    #[test]
    fn degenerate_batches() {
        let (a, b, c0) = setup(7);
        let mut s = KernelScratch::with_capacity(c0.nrows());
        let mut direct = c0.clone();
        ssssm(&a, &b, &mut direct, SsssmVariant::CV2, &mut s);
        let mut single = c0.clone();
        let upd = [SsssmUpdate { a: &a, b: &b, variant: SsssmVariant::CV2, model_flops: 0.0 }];
        ssssm_batch(&upd, &mut single, &mut s);
        assert_eq!(direct.values(), single.values());
        let mut untouched = c0.clone();
        ssssm_batch(&[], &mut untouched, &mut s);
        assert_eq!(untouched.values(), c0.values());
    }

    #[test]
    fn schur_update_completes_factorisation() {
        // After C -= L10 * U01, factoring C gives the trailing factor of
        // the full matrix: verify against a dense LU of the whole matrix.
        let nb = 16;
        let a = ensure_diagonal(&gen::random_sparse(2 * nb, 0.2, 3)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        let dense_lu = reference::ref_getrf(&filled.to_dense());

        let (l10, u01, mut c) = setup(3);
        let mut s = KernelScratch::with_capacity(nb);
        ssssm(&l10, &u01, &mut c, SsssmVariant::CV1, &mut s);
        let mut c_lu = c;
        getrf(&mut c_lu, GetrfVariant::CV1, &mut s, 0.0);
        // Compare against the (1,1) window of the dense factor.
        for i in 0..nb {
            for j in 0..nb {
                let want = dense_lu[(nb + i, nb + j)];
                let got = c_lu.get(i, j);
                assert!(
                    (want - got).abs() < 1e-9,
                    "trailing factor mismatch at ({i},{j}): {got} vs {want}"
                );
            }
        }
    }
}

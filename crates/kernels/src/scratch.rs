//! Shared kernel machinery: reusable scratch buffers, run-segmented
//! slice loops for the unplanned fast paths, and safe parallel access to
//! disjoint CSC columns.

use pangulu_sparse::{for_each_run, RunSeg, Scalar};

/// Reusable dense scratch for the `Direct` (dense-mapping) kernels.
///
/// Allocated once per worker and resized on demand, so the hot kernel
/// loops never allocate (perf-book rule: no allocation in inner loops).
#[derive(Debug, Default)]
pub struct KernelScratch<S = f64> {
    /// Dense accumulation buffer, one slot per block row.
    pub dense: Vec<S>,
    /// Per-column contiguous-run list, found once per target column and
    /// reused across that column's whole k-loop (and its scatter/gather).
    pub runs: Vec<RunSeg>,
    /// Where each column of the factor block a kernel reads starts below
    /// its diagonal, found at most once per call: GETRF records each
    /// column's as it passes it, GESSM searches a column on its first
    /// use.
    pub splits: Vec<usize>,
    /// Dense-tile lane expansion tiles: an SSSSM operand that is not
    /// full is scattered into one of these (column-major, zero-filled)
    /// once per call. Empty until the lane first needs them, then at
    /// most `nb²` scalars each, reused across calls.
    pub tile_a: Vec<S>,
    /// See [`KernelScratch::tile_a`]; the `B` operand's tile.
    pub tile_b: Vec<S>,
}

impl<S: Scalar> KernelScratch<S> {
    /// Creates scratch sized for blocks of dimension `nb`.
    pub fn with_capacity(nb: usize) -> Self {
        KernelScratch {
            dense: vec![S::ZERO; nb],
            splits: Vec::with_capacity(nb),
            ..Default::default()
        }
    }

    /// Ensures the dense buffer covers `n` rows (zero-filled).
    #[inline]
    pub fn ensure(&mut self, n: usize) {
        if self.dense.len() < n {
            self.dense.resize(n, S::ZERO);
        }
    }
}

/// A column whose split no search has found yet in this call.
const UNSEEN: usize = usize::MAX;

/// Readies `splits` for a call on a factor block of `n` columns: no
/// column's split is known yet.
pub(crate) fn reset_splits(splits: &mut Vec<usize>, n: usize) {
    splits.clear();
    splits.resize(n, UNSEEN);
}

/// The offset of column `k`'s first entry below the diagonal (`rows_k`
/// is its sorted row list): searched on the call's first use of `k`,
/// read back after.
#[inline]
pub(crate) fn split_of(splits: &mut [usize], rows_k: &[usize], k: usize) -> usize {
    let s = &mut splits[k];
    if *s == UNSEEN {
        *s = rows_k.partition_point(|&i| i <= k);
    }
    *s
}

/// Binary search for `row` within a sorted block-column row list,
/// returning the offset within the column. The pattern-closure contract
/// means lookups from kernel updates must succeed; callers assert.
#[inline]
pub(crate) fn find_in_col(rows: &[usize], row: usize) -> Option<usize> {
    rows.binary_search(&row).ok()
}

/// If the sorted row list is one contiguous run, returns its start row.
/// Dense-mapping kernels use this to replace per-element index loads with
/// a straight (vectorisable) slice walk — the payoff of "Direct"
/// addressing on dense-ish blocks.
#[inline]
pub(crate) fn contiguous_start(rows: &[usize]) -> Option<usize> {
    match (rows.first(), rows.last()) {
        (Some(&first), Some(&last)) if last - first + 1 == rows.len() => Some(first),
        _ => None,
    }
}

/// Dense axpy `dense[rows] -= coef * vals`, walking the row list as
/// maximal contiguous runs so each run is a straight (vectorisable)
/// slice loop. Runs partition the list left to right, so the per-element
/// order and arithmetic match the per-entry walk exactly.
#[inline]
pub(crate) fn scatter_axpy<S: Scalar>(dense: &mut [S], rows: &[usize], vals: &[S], coef: S) {
    for_each_run(rows, |r| {
        for (d, &v) in dense[r.start..r.start + r.len].iter_mut().zip(&vals[r.off..r.off + r.len]) {
            *d -= v * coef;
        }
    });
}

/// Sparse-into-sparse axpy `target[src_rows] -= coef * src_vals` on the
/// single-run-target fast path: when the target column is one contiguous
/// run, target positions are plain offsets and each maximal *source* run
/// becomes one vectorisable slice loop (the source no longer needs to be
/// a single run itself). Returns `false` (untouched) when the target is
/// fragmented; callers fall back to their merge/search walk, which
/// performs the identical per-element operations.
#[inline]
pub(crate) fn try_direct_axpy<S: Scalar>(
    tgt_rows: &[usize],
    tgt_vals: &mut [S],
    src_rows: &[usize],
    src_vals: &[S],
    coef: S,
) -> bool {
    let Some(t0) = contiguous_start(tgt_rows) else {
        return false;
    };
    if src_rows.is_empty() {
        return true;
    }
    debug_assert!(
        src_rows[0] >= t0 && src_rows[src_rows.len() - 1] < t0 + tgt_rows.len(),
        "closure violated"
    );
    for_each_run(src_rows, |r| {
        let off = r.start - t0;
        for (d, &v) in tgt_vals[off..off + r.len].iter_mut().zip(&src_vals[r.off..r.off + r.len]) {
            *d -= v * coef;
        }
    });
    true
}

/// Whether a column's precomputed run list is worth the run-mapped axpy:
/// single-run columns always are, fragmented columns qualify once runs
/// average at least two entries (so the slice loops amortise the per-run
/// segment lookup). Purely structural — the choice never changes the
/// arithmetic, only how target positions are located.
#[inline]
pub(crate) fn run_friendly(runs: &[RunSeg], nnz: usize) -> bool {
    runs.len() == 1 || 2 * runs.len() <= nnz
}

/// Sparse-into-sparse axpy against a target whose maximal runs were
/// computed once per column (`collect_runs`) and are reused across the
/// whole k-loop. Every maximal source run lies inside exactly one target
/// run — consecutive rows all present in the target cannot straddle a
/// target gap (pattern closure) — so each source run resolves with one
/// binary search over the run list instead of per-entry searches over
/// the row list, then updates as a slice loop.
#[inline]
pub(crate) fn axpy_into_runs<S: Scalar>(
    tgt_runs: &[RunSeg],
    tgt_vals: &mut [S],
    src_rows: &[usize],
    src_vals: &[S],
    coef: S,
) {
    for_each_run(src_rows, |r| {
        let t = tgt_runs.partition_point(|tr| tr.start <= r.start) - 1;
        let tr = tgt_runs[t];
        debug_assert!(
            r.start >= tr.start && r.start + r.len <= tr.start + tr.len,
            "closure violated"
        );
        let off = tr.off + (r.start - tr.start);
        for (d, &v) in tgt_vals[off..off + r.len].iter_mut().zip(&src_vals[r.off..r.off + r.len]) {
            *d -= v * coef;
        }
    });
}

/// Scatters `vals` (a column's value slice) into the dense buffer using
/// the column's precomputed run list: one `copy_from_slice` per segment.
#[inline]
pub(crate) fn scatter_runs<S: Scalar>(dense: &mut [S], runs: &[RunSeg], vals: &[S]) {
    for r in runs {
        dense[r.start..r.start + r.len].copy_from_slice(&vals[r.off..r.off + r.len]);
    }
}

/// Gathers the dense buffer back into `vals` and re-zeroes the touched
/// slots, using the same precomputed run list as the scatter.
#[inline]
pub(crate) fn gather_zero_runs<S: Scalar>(dense: &mut [S], runs: &[RunSeg], vals: &mut [S]) {
    for r in runs {
        let d = &mut dense[r.start..r.start + r.len];
        vals[r.off..r.off + r.len].copy_from_slice(d);
        d.fill(S::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_resizes() {
        let mut s = KernelScratch::<f64>::with_capacity(4);
        s.ensure(10);
        assert!(s.dense.len() >= 10);
        assert!(s.dense.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn splits_are_searched_once_and_read_back() {
        let mut splits = vec![7; 2];
        reset_splits(&mut splits, 3);
        assert_eq!(splits, [UNSEEN; 3]);
        assert_eq!(split_of(&mut splits, &[0, 1, 4], 1), 2);
        // The recorded offset is read back, not searched again.
        assert_eq!(split_of(&mut splits, &[], 1), 2);
        assert_eq!(split_of(&mut splits, &[0, 2], 2), 2, "a column with nothing below");
        assert_eq!(splits, [UNSEEN, 2, 2]);
    }

    #[test]
    fn find_in_col_hits_and_misses() {
        let rows = [1usize, 4, 9];
        assert_eq!(find_in_col(&rows, 4), Some(1));
        assert_eq!(find_in_col(&rows, 5), None);
    }

    #[test]
    fn widened_direct_axpy_takes_fragmented_sources() {
        // Single-run target, source with a gap: previously fell back.
        let tgt_rows = [2usize, 3, 4, 5, 6];
        let mut tgt = [10.0f64; 5];
        let src_rows = [2usize, 3, 5];
        let src = [1.0, 2.0, 4.0];
        assert!(try_direct_axpy(&tgt_rows, &mut tgt, &src_rows, &src, 2.0));
        assert_eq!(tgt, [8.0, 6.0, 10.0, 2.0, 10.0]);
        // Fragmented target still declines.
        let frag_rows = [0usize, 2, 3];
        let mut frag = [1.0f64; 3];
        assert!(!try_direct_axpy(&frag_rows, &mut frag, &[2usize], &[1.0], 1.0));
        assert_eq!(frag, [1.0; 3]);
    }

    #[test]
    fn run_mapped_axpy_matches_per_entry_search() {
        let tgt_rows = [0usize, 1, 4, 5, 6, 9];
        let src_rows = [1usize, 4, 5, 9];
        let src = [1.0f64, 2.0, 3.0, 4.0];
        let mut runs = Vec::new();
        pangulu_sparse::collect_runs(&tgt_rows, &mut runs);
        let mut got = [1.0f64; 6];
        axpy_into_runs(&runs, &mut got, &src_rows, &src, 0.5);
        let mut want = [1.0f64; 6];
        for (&r, &v) in src_rows.iter().zip(&src) {
            want[tgt_rows.iter().position(|&t| t == r).unwrap()] -= v * 0.5;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn run_scatter_gather_round_trips() {
        let rows = [1usize, 2, 5, 6, 7];
        let vals = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let mut runs = Vec::new();
        pangulu_sparse::collect_runs(&rows, &mut runs);
        let mut dense = [0.0f64; 9];
        scatter_runs(&mut dense, &runs, &vals);
        assert_eq!(dense, [0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.0]);
        let mut back = [0.0f64; 5];
        gather_zero_runs(&mut dense, &runs, &mut back);
        assert_eq!(back, vals);
        assert!(dense.iter().all(|&v| v == 0.0));
    }
}

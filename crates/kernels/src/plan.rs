//! Analysis-time kernel index plans (the "planned" variant class).
//!
//! After symbolic factorisation every block's pattern is fixed, yet the
//! unplanned kernels re-discover it on every call: SSSSM scatters and
//! gathers a dense working column, GESSM/TSTRF run merge walks between
//! the factor and the unknown, GETRF binary-searches its update targets.
//! A *plan* performs that discovery once per task and stores the result
//! as flat index arrays, so a repeated factorisation (and the steady
//! state of [`Solver::refactor`]) runs pure indexed arithmetic — the
//! same trick circuit-simulation solvers use for repeated factorisation
//! speed.
//!
//! **Bitwise contract.** Each planned entry point performs *exactly* the
//! `C_V1` subtraction sequence: same per-column order, same ascending
//! source-entry order, same value-dependent zero skips (re-checked at
//! run time, never baked into the plan). The dense scatter/gather and
//! merge cursors it elides are pure index machinery — they move values
//! without arithmetic — so planned results are bitwise identical to the
//! unplanned kernels (`tests/planned_equivalence.rs` holds the crate to
//! this on random closed patterns).
//!
//! **Run-segment encoding.** A builder does not store one arena element
//! per touched value slot: it compresses each entry's index list into
//! maximal contiguous-run segments (start, len), found with
//! [`pangulu_sparse::for_each_run`]. Replay then executes one slice-level
//! axpy per segment — loops over `&mut dst[t0..t0+len]` zipped with a
//! contiguous source — which the compiler autovectorises, with `f32`
//! getting twice the lanes per op. Because runs partition the index list
//! left to right, the per-element arithmetic (mul-then-sub, ascending
//! order, runtime zero skips) is that of the entry-by-entry walk, so
//! replay stays bitwise identical to the unplanned kernels.
//!
//! **One decision.** Whether a task replays a plan or runs the variant
//! the Figure 8 tree picks is answered in exactly one place: the
//! `route_*` lookups of [`KernelPlans`], from the
//! [`KernelSelector`] planned gates and [`KernelPlans::fits`]. A task
//! that does not replay a plan gets the selector's leaf for its blocks —
//! the dense-tile lane when they are full, else the Figure 8 tree's pick
//! (panel precedence: plan, then tile, then tree). SSSSM asks the target
//! first: an update onto a full target never has a plan — positions
//! there are `j·m + r`, a plan would resolve nothing — and takes the
//! tile or the tree's pick, whose `C_V1` updates full columns in place;
//! only a target with a hole goes plan, then tree. Executors hand the
//! resulting [`Route`] to [`crate::TimedKernels`] and never test a gate
//! or a block's fullness themselves; closing the gates through
//! [`crate::Thresholds::unplanned`] is how a run without plans is asked
//! for.
//!
//! **Memory model.** Index lists live in one pooled arena per
//! [`KernelPlans`], whose element type is the scalar's
//! [`Scalar::PlanIdx`] — `u32` for `f64`, `u16` for `f32`, which is the
//! structural halving of `plan_bytes` in mixed-precision mode. Arena
//! elements are value-array positions *within one block*, so they fit
//! the narrow index whenever the block's nnz does; [`KernelPlans::fits`]
//! is the guard that routes oversized blocks (bitwise identically) to
//! the unplanned kernels. Each per-task plan holds small
//! structs-of-`u32`-offsets into the arena (arena offsets grow with the
//! whole pool, so they stay wide). The `build_*` methods fill a pool
//! before the tasks run — the executor builds the plans of every task
//! it owns in one pass — and the plans are reused verbatim across
//! refactorisations, with no per-call allocation. [`KernelPlans::stats`]
//! reports bytes from slice *lengths*, which are independent of build
//! order, so `plan_bytes` is deterministic; builders leave their tables at
//! capacity = length and [`KernelPlans::shrink_to_fit`] does the same for
//! the arena, so after a factorisation it is also what the pool holds.
//!
//! [`Solver::refactor`]: ../../pangulu_core/solver/struct.Solver.html

use std::time::Instant;

use pangulu_sparse::{for_each_run, CscMatrix, PlanIndex, Scalar};

use crate::getrf::apply_floor;
use crate::select::KernelSelector;
use crate::tile::is_full;
use crate::{GetrfVariant, SsssmVariant, TrsmVariant};

/// Narrows a block-local position into the arena's index type. Callers
/// guarantee the fit via [`KernelPlans::fits`].
#[inline(always)]
fn idx<I: PlanIndex>(v: usize) -> I {
    I::from_usize(v)
}

/// Compresses the sorted position list `tgts` into `(start, len)` run
/// segments appended to `arena`; returns the segment count. Used by the
/// SSSSM/GETRF builders, whose sources advance sequentially so only the
/// target positions need encoding.
fn push_run_segs<I: PlanIndex>(tgts: &[usize], arena: &mut Vec<I>) -> u32 {
    let mut runs = 0u32;
    for_each_run(tgts, |r| {
        arena.push(idx(r.start));
        arena.push(idx(r.len));
        runs += 1;
    });
    runs
}

/// Compresses `(src, tgt)` index pairs into `(src_start, tgt_start, len)`
/// triples appended to `arena` — a run requires *both* indices to advance
/// in lockstep. Returns the triple count. Used by the GESSM/TSTRF
/// builders, whose merge walks pair a source slot with a target slot.
fn push_pair_run_segs<I: PlanIndex>(pairs: &[(usize, usize)], arena: &mut Vec<I>) -> u32 {
    let mut runs = 0u32;
    let mut p = 0;
    while p < pairs.len() {
        let (s0, t0) = pairs[p];
        let mut q = p + 1;
        while q < pairs.len() && pairs[q] == (s0 + (q - p), t0 + (q - p)) {
            q += 1;
        }
        arena.push(idx(s0));
        arena.push(idx(t0));
        arena.push(idx(q - p));
        runs += 1;
        p = q;
    }
    runs
}

/// Entries a run segmentation absorbs beyond each segment's head: a
/// `total`-entry list split into `runs` maximal segments executes
/// `total - runs` elements as slice-loop continuations instead of
/// per-entry indexed steps. Zero for a fully scattered list.
#[inline]
fn run_entries_of(total: usize, runs: u32) -> u64 {
    debug_assert!(runs as usize <= total);
    (total - runs as usize) as u64
}

/// One SSSSM product term: all of `A(:, k)` scaled by one `B(k, j)`.
#[derive(Debug, Clone, Copy)]
pub struct SsssmEntry {
    /// Absolute index of `B(k, j)` in `b.values()`.
    pub bp: u32,
    /// Absolute start of `A(:, k)` in `a.values()`.
    pub a_lo: u32,
    /// Number of entries in `A(:, k)`.
    pub len: u32,
    /// Arena offset of the targets in `c.values()`: `runs` `(start, len)`
    /// segment pairs.
    pub tgt_off: u32,
    /// Run-segment count.
    pub runs: u32,
}

/// Scatter plan for one SSSSM task `C ← C − A·B`.
#[derive(Debug, Clone, Default)]
pub struct SsssmPlan {
    /// Product terms in kernel order (column-ascending, then B-entry,
    /// then A-entry ascending).
    pub entries: Vec<SsssmEntry>,
    /// Index lookups the unplanned addressing would perform per call.
    pub searches_avoided: u64,
    /// Run segments stored in the arena.
    pub runs: u64,
    /// Entries executed as slice-loop continuations per replay.
    pub run_entries: u64,
}

/// One solved unknown `x_k` of a GESSM column and its propagation pairs.
#[derive(Debug, Clone, Copy)]
pub struct GessmSrc {
    /// Absolute index of `x_k` in `b.values()`.
    pub x_idx: u32,
    /// Arena offset of the propagation encoding: `runs`
    /// `(l_start, tgt_start, len)` triples.
    pub pair_off: u32,
    /// Number of `(l_idx, tgt_idx)` pairs the triples cover.
    pub pair_len: u32,
    /// Run-segment count.
    pub runs: u32,
}

/// Row-match plan for one GESSM task `L X = B`.
#[derive(Debug, Clone, Default)]
pub struct GessmPlan {
    /// Propagation steps in kernel order (column-ascending, then entry
    /// order within the column).
    pub srcs: Vec<GessmSrc>,
    /// Merge/binary-search positions resolved at plan time.
    pub searches_avoided: u64,
    /// Run segments stored in the arena.
    pub runs: u64,
    /// Entries executed as slice-loop continuations per replay.
    pub run_entries: u64,
}

/// One column of a TSTRF plan.
#[derive(Debug, Clone, Copy)]
pub struct TstrfCol {
    /// First entry of this column's updates in [`TstrfPlan::uents`].
    pub u_off: u32,
    /// Number of updates.
    pub u_len: u32,
    /// Absolute index of `U(j, j)` in `diag_lu.values()`.
    pub ujj_idx: u32,
    /// Absolute start of column `j` in `b.values()`.
    pub j_lo: u32,
    /// Number of entries in column `j` of `b` (all divided by `ujj`).
    pub j_len: u32,
}

/// One upper-factor entry `U(k, j)` driving a TSTRF column update.
#[derive(Debug, Clone, Copy)]
pub struct TstrfUent {
    /// Absolute index of `U(k, j)` in `diag_lu.values()`.
    pub u_idx: u32,
    /// Arena offset of the update encoding (all indices absolute into
    /// `b.values()`): `runs` `(src_start, tgt_start, len)` triples.
    pub pair_off: u32,
    /// Number of `(src_idx, tgt_idx)` pairs the triples cover.
    pub pair_len: u32,
    /// Run-segment count.
    pub runs: u32,
}

/// Row-match plan for one TSTRF task `X U = B`.
#[derive(Debug, Clone, Default)]
pub struct TstrfPlan {
    /// Columns in ascending order (their dependencies point left).
    pub cols: Vec<TstrfCol>,
    /// Update terms, grouped per column via [`TstrfCol::u_off`].
    pub uents: Vec<TstrfUent>,
    /// Merge positions resolved at plan time.
    pub searches_avoided: u64,
    /// Run segments stored in the arena.
    pub runs: u64,
    /// Entries executed as slice-loop continuations per replay.
    pub run_entries: u64,
}

/// One column of a GETRF plan.
#[derive(Debug, Clone, Copy)]
pub struct GetrfCol {
    /// Absolute start of column `j` in `a.values()`.
    pub lo: u32,
    /// Number of entries in column `j`.
    pub len: u32,
    /// First entry of this column's updates in [`GetrfPlan::uents`].
    pub u_off: u32,
    /// Number of updates.
    pub u_len: u32,
    /// Offset of the diagonal entry within column `j`.
    pub diag_rel: u32,
}

/// One upper entry `U(k, j)` driving a GETRF column update.
#[derive(Debug, Clone, Copy)]
pub struct GetrfUent {
    /// Offset of `U(k, j)` within column `j` (it is read from the
    /// in-progress column, so it cannot be an absolute source index).
    pub u_rel: u32,
    /// Absolute start of the strict-lower part of `A(:, k)`.
    pub src_lo: u32,
    /// Number of source entries.
    pub len: u32,
    /// Arena offset of the targets, *within column `j`*: `runs`
    /// `(start, len)` pairs.
    pub tgt_off: u32,
    /// Run-segment count.
    pub runs: u32,
}

/// Pivot/update plan for one GETRF task.
#[derive(Debug, Clone, Default)]
pub struct GetrfPlan {
    /// Columns in ascending order.
    pub cols: Vec<GetrfCol>,
    /// Update terms, grouped per column via [`GetrfCol::u_off`].
    pub uents: Vec<GetrfUent>,
    /// Binary-search lookups the un-planned addressing would perform.
    pub searches_avoided: u64,
    /// Run segments stored in the arena.
    pub runs: u64,
    /// Entries executed as slice-loop continuations per replay.
    pub run_entries: u64,
}

/// Builds the scatter plan for `C ← C − A·B` (patterns only).
///
/// # Panics
/// Panics if a product entry has no slot in `C`'s pattern (violation of
/// the symbolic closure contract, which the unplanned dense path would
/// silently corrupt on).
pub fn build_ssssm_plan<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &CscMatrix<S>,
    arena: &mut Vec<S::PlanIdx>,
) -> SsssmPlan {
    let mut plan = SsssmPlan::default();
    let a_ptr = a.col_ptr();
    let a_rows = a.row_idx();
    let mut tgts: Vec<usize> = Vec::new();
    for j in 0..c.ncols() {
        let (brows, _) = b.col(j);
        let (crows, _) = c.col(j);
        if brows.is_empty() || crows.is_empty() {
            continue;
        }
        let blo = b.col_ptr()[j];
        let clo = c.col_ptr()[j];
        for (off, &k) in brows.iter().enumerate() {
            let (alo, ahi) = (a_ptr[k], a_ptr[k + 1]);
            if alo == ahi {
                continue;
            }
            tgts.clear();
            for &i in &a_rows[alo..ahi] {
                let pos =
                    crows.binary_search(&i).expect("SSSSM plan target missing: pattern not closed");
                tgts.push(clo + pos);
            }
            let tgt_off = arena.len() as u32;
            let runs = push_run_segs(&tgts, arena);
            plan.runs += u64::from(runs);
            plan.run_entries += run_entries_of(tgts.len(), runs);
            plan.entries.push(SsssmEntry {
                bp: (blo + off) as u32,
                a_lo: alo as u32,
                len: (ahi - alo) as u32,
                tgt_off,
                runs,
            });
            plan.searches_avoided += (ahi - alo) as u64;
        }
    }
    plan.entries.shrink_to_fit();
    plan
}

/// Builds the row-match plan for `L X = B`, simulating the `C_V1` merge
/// walk (unmatched source rows are skipped exactly as the kernel's
/// cursor skips them).
pub fn build_gessm_plan<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &CscMatrix<S>,
    arena: &mut Vec<S::PlanIdx>,
) -> GessmPlan {
    let mut plan = GessmPlan::default();
    let l_ptr = diag_lu.col_ptr();
    let l_rows = diag_lu.row_idx();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for c in 0..b.ncols() {
        let (rows_c, _) = b.col(c);
        let blo = b.col_ptr()[c];
        for (p, &k) in rows_c.iter().enumerate() {
            let (klo, khi) = (l_ptr[k], l_ptr[k + 1]);
            let start = klo + l_rows[klo..khi].partition_point(|&i| i <= k);
            let tail = &rows_c[p + 1..];
            pairs.clear();
            let mut cur = 0usize;
            for (q, &i) in l_rows[start..khi].iter().enumerate() {
                while cur < tail.len() && tail[cur] < i {
                    cur += 1;
                }
                if cur < tail.len() && tail[cur] == i {
                    pairs.push((start + q, blo + p + 1 + cur));
                    cur += 1;
                } else {
                    debug_assert!(false, "GESSM plan target missing: pattern not closed");
                }
            }
            if !pairs.is_empty() {
                let pair_off = arena.len() as u32;
                let runs = push_pair_run_segs(&pairs, arena);
                plan.runs += u64::from(runs);
                plan.run_entries += run_entries_of(pairs.len(), runs);
                plan.srcs.push(GessmSrc {
                    x_idx: (blo + p) as u32,
                    pair_off,
                    pair_len: pairs.len() as u32,
                    runs,
                });
                plan.searches_avoided += pairs.len() as u64;
            }
        }
    }
    plan.srcs.shrink_to_fit();
    plan
}

/// Builds the row-match plan for `X U = B`, simulating the `C_V1`
/// (merge-addressing) sequential TSTRF.
///
/// # Panics
/// Panics if the factor's diagonal entry is structurally missing.
pub fn build_tstrf_plan<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &CscMatrix<S>,
    arena: &mut Vec<S::PlanIdx>,
) -> TstrfPlan {
    let mut plan = TstrfPlan::default();
    let d_ptr = diag_lu.col_ptr();
    let d_rows = diag_lu.row_idx();
    let b_ptr = b.col_ptr();
    let b_rows = b.row_idx();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for j in 0..b.ncols() {
        let (jlo, jhi) = (b_ptr[j], b_ptr[j + 1]);
        if jlo == jhi {
            continue;
        }
        let rows_j = &b_rows[jlo..jhi];
        let (dlo, dhi) = (d_ptr[j], d_ptr[j + 1]);
        let dpos = d_rows[dlo..dhi].partition_point(|&r| r < j);
        assert!(dpos < dhi - dlo && d_rows[dlo + dpos] == j, "TSTRF plan: diagonal entry missing");
        let u_off = plan.uents.len() as u32;
        for q in 0..dpos {
            let k = d_rows[dlo + q];
            let (klo, khi) = (b_ptr[k], b_ptr[k + 1]);
            pairs.clear();
            let mut cur = 0usize;
            for (t, &r) in b_rows[klo..khi].iter().enumerate() {
                while cur < rows_j.len() && rows_j[cur] < r {
                    cur += 1;
                }
                if cur < rows_j.len() && rows_j[cur] == r {
                    pairs.push((klo + t, jlo + cur));
                    cur += 1;
                } else {
                    debug_assert!(false, "TSTRF plan target missing: pattern not closed");
                }
            }
            if !pairs.is_empty() {
                let pair_off = arena.len() as u32;
                let runs = push_pair_run_segs(&pairs, arena);
                plan.runs += u64::from(runs);
                plan.run_entries += run_entries_of(pairs.len(), runs);
                plan.uents.push(TstrfUent {
                    u_idx: (dlo + q) as u32,
                    pair_off,
                    pair_len: pairs.len() as u32,
                    runs,
                });
                plan.searches_avoided += pairs.len() as u64;
            }
        }
        plan.cols.push(TstrfCol {
            u_off,
            u_len: plan.uents.len() as u32 - u_off,
            ujj_idx: (dlo + dpos) as u32,
            j_lo: jlo as u32,
            j_len: (jhi - jlo) as u32,
        });
    }
    plan.cols.shrink_to_fit();
    plan.uents.shrink_to_fit();
    plan
}

/// Builds the pivot/update plan for a GETRF diagonal block.
///
/// # Panics
/// Panics if an update target or a diagonal entry is missing from the
/// pattern (closure violation).
pub fn build_getrf_plan<S: Scalar>(a: &CscMatrix<S>, arena: &mut Vec<S::PlanIdx>) -> GetrfPlan {
    let mut plan = GetrfPlan::default();
    let col_ptr = a.col_ptr();
    let row_idx = a.row_idx();
    let mut tgts: Vec<usize> = Vec::new();
    for j in 0..a.ncols() {
        let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
        let rows_j = &row_idx[lo..hi];
        let u_off = plan.uents.len() as u32;
        for (off_k, &k) in rows_j.iter().enumerate() {
            if k >= j {
                break;
            }
            let (klo, khi) = (col_ptr[k], col_ptr[k + 1]);
            let start = klo + row_idx[klo..khi].partition_point(|&i| i <= k);
            if start == khi {
                continue;
            }
            tgts.clear();
            for &i in &row_idx[start..khi] {
                let pos = rows_j
                    .binary_search(&i)
                    .expect("GETRF plan target missing: pattern not closed");
                tgts.push(pos);
            }
            let tgt_off = arena.len() as u32;
            let runs = push_run_segs(&tgts, arena);
            plan.runs += u64::from(runs);
            plan.run_entries += run_entries_of(tgts.len(), runs);
            plan.uents.push(GetrfUent {
                u_rel: off_k as u32,
                src_lo: start as u32,
                len: (khi - start) as u32,
                tgt_off,
                runs,
            });
            plan.searches_avoided += (khi - start) as u64;
        }
        let diag_rel = rows_j.binary_search(&j).expect("GETRF plan: diagonal entry missing");
        plan.cols.push(GetrfCol {
            lo: lo as u32,
            len: (hi - lo) as u32,
            u_off,
            u_len: plan.uents.len() as u32 - u_off,
            diag_rel: diag_rel as u32,
        });
    }
    plan.cols.shrink_to_fit();
    plan.uents.shrink_to_fit();
    plan
}

/// Planned `C ← C − A·B`: pure indexed arithmetic, bitwise identical to
/// [`crate::ssssm::ssssm`] with `C_V1`.
pub fn ssssm_planned<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &mut CscMatrix<S>,
    plan: &SsssmPlan,
    arena: &[S::PlanIdx],
) {
    let avals = a.values();
    let bvals = b.values();
    let cvals = c.values_mut();
    for e in &plan.entries {
        let bkj = bvals[e.bp as usize];
        if bkj == S::ZERO {
            continue;
        }
        let srcs = &avals[e.a_lo as usize..e.a_lo as usize + e.len as usize];
        // One slice axpy per (start, len) pair, the source consumed
        // sequentially: the per-element order and arithmetic of the
        // entry-by-entry walk, so bitwise identical to it.
        let segs = &arena[e.tgt_off as usize..e.tgt_off as usize + 2 * e.runs as usize];
        let mut s = 0usize;
        for seg in segs.chunks_exact(2) {
            let (t0, rl) = (seg[0].index(), seg[1].index());
            for (c, &aik) in cvals[t0..t0 + rl].iter_mut().zip(&srcs[s..s + rl]) {
                *c -= aik * bkj;
            }
            s += rl;
        }
    }
}

/// Planned `L X = B`: bitwise identical to [`crate::trsm::gessm`] with
/// `C_V1`.
pub fn gessm_planned<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    plan: &GessmPlan,
    arena: &[S::PlanIdx],
) {
    let lvals = diag_lu.values();
    let bvals = b.values_mut();
    for s in &plan.srcs {
        let xk = bvals[s.x_idx as usize];
        if xk == S::ZERO {
            continue;
        }
        // (l_start, tgt_start, len) triples: both cursors advance in
        // lockstep inside a run, so the slice loop performs the same
        // subtractions in the same order as a pair-by-pair walk.
        let trs = &arena[s.pair_off as usize..s.pair_off as usize + 3 * s.runs as usize];
        for tr in trs.chunks_exact(3) {
            let (l0, t0, rl) = (tr[0].index(), tr[1].index(), tr[2].index());
            for (b, &l) in bvals[t0..t0 + rl].iter_mut().zip(&lvals[l0..l0 + rl]) {
                *b -= l * xk;
            }
        }
    }
}

/// Planned `X U = B`: bitwise identical to [`crate::trsm::tstrf`] with
/// `C_V1`.
pub fn tstrf_planned<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    plan: &TstrfPlan,
    arena: &[S::PlanIdx],
) {
    let dvals = diag_lu.values();
    let bvals = b.values_mut();
    for col in &plan.cols {
        for ue in &plan.uents[col.u_off as usize..col.u_off as usize + col.u_len as usize] {
            let ukj = dvals[ue.u_idx as usize];
            if ukj == S::ZERO {
                continue;
            }
            // (src_start, tgt_start, len) triples, both absolute into
            // b.values(). The source column k precedes the target column
            // j in CSC order, so src_start + len <= tgt_start and the
            // borrow split below is always valid.
            let trs = &arena[ue.pair_off as usize..ue.pair_off as usize + 3 * ue.runs as usize];
            for tr in trs.chunks_exact(3) {
                let (s0, t0, rl) = (tr[0].index(), tr[1].index(), tr[2].index());
                let (left, right) = bvals.split_at_mut(t0);
                for (t, &sv) in right[..rl].iter_mut().zip(&left[s0..s0 + rl]) {
                    *t -= sv * ukj;
                }
            }
        }
        let ujj = dvals[col.ujj_idx as usize];
        for v in &mut bvals[col.j_lo as usize..col.j_lo as usize + col.j_len as usize] {
            *v /= ujj;
        }
    }
}

/// Planned GETRF: bitwise identical to [`crate::getrf::getrf`] with
/// `C_V1`. Returns the perturbed-pivot count.
pub fn getrf_planned<S: Scalar>(
    a: &mut CscMatrix<S>,
    plan: &GetrfPlan,
    arena: &[S::PlanIdx],
    pivot_floor: f64,
) -> usize {
    let mut perturbed = 0usize;
    let (_, _, values) = a.parts_mut();
    for col in &plan.cols {
        let lo = col.lo as usize;
        let (left, right) = values.split_at_mut(lo);
        let vals_j = &mut right[..col.len as usize];
        for ue in &plan.uents[col.u_off as usize..col.u_off as usize + col.u_len as usize] {
            let ukj = vals_j[ue.u_rel as usize];
            if ukj == S::ZERO {
                continue;
            }
            let srcs = &left[ue.src_lo as usize..ue.src_lo as usize + ue.len as usize];
            // (start, len) pairs of offsets within column j, source
            // consumed sequentially from the contiguous left slice.
            let segs = &arena[ue.tgt_off as usize..ue.tgt_off as usize + 2 * ue.runs as usize];
            let mut s = 0usize;
            for seg in segs.chunks_exact(2) {
                let (t0, rl) = (seg[0].index(), seg[1].index());
                for (t, &lik) in vals_j[t0..t0 + rl].iter_mut().zip(&srcs[s..s + rl]) {
                    *t -= lik * ukj;
                }
                s += rl;
            }
        }
        let diag = col.diag_rel as usize;
        let mut pivot = vals_j[diag];
        perturbed += apply_floor(&mut pivot, pivot_floor);
        vals_j[diag] = pivot;
        for v in &mut vals_j[diag + 1..] {
            *v /= pivot;
        }
    }
    perturbed
}

/// Plan-layer accounting, all derived from deterministic quantities
/// except `build_ns` (a wall clock, zeroed by the metrics projection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Bytes held by the arena and the per-task plan tables (from slice
    /// lengths, so independent of build order).
    pub bytes: u64,
    /// Cumulative wall time spent building plans, in nanoseconds.
    pub build_ns: u64,
    /// Number of per-task plans built so far.
    pub builds: u64,
}

/// How one task's kernel runs — the answer of the single
/// planned-or-variant decision (see the module docs): replay the task's
/// cached index plan, or run the variant the Figure 8 tree picks.
#[derive(Debug, Clone, Copy)]
pub enum Route<'p, P, I, V> {
    /// Replay this plan against the pooled arena it indexes.
    Plan(&'p P, &'p [I]),
    /// Run the selector's leaf: the dense-tile lane or the decision
    /// tree's variant.
    Variant(V),
}

/// Per-rank (or per-solver) pool of kernel plans: one pooled index
/// arena plus per-task plan slots.
///
/// Slot keys are the caller's: GETRF by diagonal index, GESSM/TSTRF by
/// target block id, SSSSM by task-graph update index. The `build_*`
/// methods fill a slot from the task's block patterns where the gates
/// admit a plan, before any task runs; the `route_*` methods then decide
/// planned-or-variant for one task without writing the pool (so workers
/// read it without locks), falling back to the variant when no plan was
/// built.
#[derive(Debug, Default)]
pub struct KernelPlans<S: Scalar = f64> {
    arena: Vec<S::PlanIdx>,
    getrf: Vec<Option<GetrfPlan>>,
    gessm: Vec<Option<GessmPlan>>,
    tstrf: Vec<Option<TstrfPlan>>,
    ssssm: Vec<Option<SsssmPlan>>,
    builds: u64,
    build_ns: u64,
}

impl<S: Scalar> KernelPlans<S> {
    /// Creates an empty pool with the given slot counts per class.
    pub fn with_slots(getrf: usize, gessm: usize, tstrf: usize, ssssm: usize) -> Self {
        KernelPlans {
            arena: Vec::new(),
            getrf: (0..getrf).map(|_| None).collect(),
            gessm: (0..gessm).map(|_| None).collect(),
            tstrf: (0..tstrf).map(|_| None).collect(),
            ssssm: (0..ssssm).map(|_| None).collect(),
            builds: 0,
            build_ns: 0,
        }
    }

    /// `true` if a block with `nnz` stored entries can be planned in this
    /// pool's index width. `f64` pools use `u32` indices (always fits in
    /// practice); `f32` pools use `u16` and decline blocks with more than
    /// 65535 entries — those run the unplanned kernels, which are bitwise
    /// identical, so the fallback is invisible to results.
    #[inline]
    pub fn fits(&self, nnz: usize) -> bool {
        nnz <= <S::PlanIdx as PlanIndex>::MAX_INDEX
    }

    fn plans_getrf(&self, sel: &KernelSelector, a: &CscMatrix<S>) -> bool {
        sel.planned_getrf(a.nnz()) && self.fits(a.nnz())
    }

    fn plans_gessm(&self, sel: &KernelSelector, diag_lu: &CscMatrix<S>, b: &CscMatrix<S>) -> bool {
        sel.planned_gessm(b.nnz()) && self.fits(b.nnz()) && self.fits(diag_lu.nnz())
    }

    fn plans_tstrf(&self, sel: &KernelSelector, diag_lu: &CscMatrix<S>, b: &CscMatrix<S>) -> bool {
        sel.planned_tstrf(b.nnz()) && self.fits(b.nnz()) && self.fits(diag_lu.nnz())
    }

    /// Never on a full target: there the position of row `r` in column
    /// `j` is `j·m + r`, so a plan's run lists resolve nothing, yet they
    /// were the bulk of plan memory. Such an update takes the selector's
    /// leaf — the tile, or `C_V1` updating the full columns in place.
    fn plans_ssssm(&self, sel: &KernelSelector, flops: f64, c: &CscMatrix<S>) -> bool {
        sel.planned_ssssm(flops) && self.fits(c.nnz()) && !is_full(c)
    }

    /// Builds the GETRF plan of diagonal block `a` into `slot`, if the
    /// gates admit one and the slot is empty.
    pub fn build_getrf(&mut self, sel: &KernelSelector, slot: usize, a: &CscMatrix<S>) {
        if self.getrf[slot].is_none() && self.plans_getrf(sel, a) {
            self.getrf[slot] = Some(self.timed_build(|arena| build_getrf_plan(a, arena)));
        }
    }

    /// Builds the plan of the GESSM `L X = B` on block `b`, as
    /// [`KernelPlans::build_getrf`].
    pub fn build_gessm(
        &mut self,
        sel: &KernelSelector,
        slot: usize,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) {
        if self.gessm[slot].is_none() && self.plans_gessm(sel, diag_lu, b) {
            self.gessm[slot] = Some(self.timed_build(|arena| build_gessm_plan(diag_lu, b, arena)));
        }
    }

    /// Builds the plan of the TSTRF `X U = B` on block `b`, as
    /// [`KernelPlans::build_getrf`].
    pub fn build_tstrf(
        &mut self,
        sel: &KernelSelector,
        slot: usize,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) {
        if self.tstrf[slot].is_none() && self.plans_tstrf(sel, diag_lu, b) {
            self.tstrf[slot] = Some(self.timed_build(|arena| build_tstrf_plan(diag_lu, b, arena)));
        }
    }

    /// Builds the plan of the SSSSM `C ← C − A·B` of `flops` model FLOPs,
    /// as [`KernelPlans::build_getrf`].
    pub fn build_ssssm(
        &mut self,
        sel: &KernelSelector,
        slot: usize,
        flops: f64,
        a: &CscMatrix<S>,
        b: &CscMatrix<S>,
        c: &CscMatrix<S>,
    ) {
        if self.ssssm[slot].is_none() && self.plans_ssssm(sel, flops, c) {
            self.ssssm[slot] = Some(self.timed_build(|arena| build_ssssm_plan(a, b, c, arena)));
        }
    }

    /// Routes the GETRF of diagonal block `a`: its plan if one was built,
    /// else the selector's variant.
    pub fn route_getrf(
        &self,
        sel: &KernelSelector,
        slot: usize,
        a: &CscMatrix<S>,
    ) -> Route<'_, GetrfPlan, S::PlanIdx, GetrfVariant> {
        match self.getrf.get(slot).and_then(Option::as_ref) {
            Some(p) if self.plans_getrf(sel, a) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.getrf(a.nnz())),
        }
    }

    /// Routes the GESSM `L X = B` on block `b`, as
    /// [`KernelPlans::route_getrf`].
    pub fn route_gessm(
        &self,
        sel: &KernelSelector,
        slot: usize,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) -> Route<'_, GessmPlan, S::PlanIdx, TrsmVariant> {
        match self.gessm.get(slot).and_then(Option::as_ref) {
            Some(p) if self.plans_gessm(sel, diag_lu, b) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.gessm_on(diag_lu, b)),
        }
    }

    /// Routes the TSTRF `X U = B` on block `b`, as
    /// [`KernelPlans::route_getrf`].
    pub fn route_tstrf(
        &self,
        sel: &KernelSelector,
        slot: usize,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) -> Route<'_, TstrfPlan, S::PlanIdx, TrsmVariant> {
        match self.tstrf.get(slot).and_then(Option::as_ref) {
            Some(p) if self.plans_tstrf(sel, diag_lu, b) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.tstrf_on(diag_lu, b)),
        }
    }

    /// Routes the SSSSM `C ← C − A·B` of `flops` model FLOPs, as
    /// [`KernelPlans::route_getrf`].
    pub fn route_ssssm(
        &self,
        sel: &KernelSelector,
        slot: usize,
        flops: f64,
        a: &CscMatrix<S>,
        c: &CscMatrix<S>,
    ) -> Route<'_, SsssmPlan, S::PlanIdx, SsssmVariant> {
        match self.ssssm.get(slot).and_then(Option::as_ref) {
            Some(p) if self.plans_ssssm(sel, flops, c) => Route::Plan(p, &self.arena),
            _ => Route::Variant(sel.ssssm_on(flops, a, c)),
        }
    }

    /// Runs one plan builder against the pooled arena, on the build clock.
    fn timed_build<P>(&mut self, build: impl FnOnce(&mut Vec<S::PlanIdx>) -> P) -> P {
        let start = Instant::now();
        let plan = build(&mut self.arena);
        self.builds += 1;
        self.build_ns = self
            .build_ns
            .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        plan
    }

    /// Returns the arena's growth slack (it is grown by `push`, up to 2×
    /// what it holds) to the allocator. Executors call it once at the end
    /// of a factorisation; a no-op unless plans were built since the last
    /// call. The per-task tables are exact-size from their builders, so
    /// afterwards the pool holds exactly the bytes [`KernelPlans::stats`]
    /// reports.
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
    }

    /// Current plan-layer accounting.
    pub fn stats(&self) -> PlanStats {
        let mut bytes = std::mem::size_of_val(self.arena.as_slice());
        for p in self.getrf.iter().flatten() {
            bytes += std::mem::size_of_val(p.cols.as_slice())
                + std::mem::size_of_val(p.uents.as_slice());
        }
        for p in self.gessm.iter().flatten() {
            bytes += std::mem::size_of_val(p.srcs.as_slice());
        }
        for p in self.tstrf.iter().flatten() {
            bytes += std::mem::size_of_val(p.cols.as_slice())
                + std::mem::size_of_val(p.uents.as_slice());
        }
        for p in self.ssssm.iter().flatten() {
            bytes += std::mem::size_of_val(p.entries.as_slice());
        }
        PlanStats { bytes: bytes as u64, build_ns: self.build_ns, builds: self.builds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getrf::getrf;
    use crate::ssssm::ssssm;
    use crate::trsm::{gessm, tstrf};
    use crate::{KernelScratch, Thresholds};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    /// Factored diagonal + solved panels + raw trailing block from a
    /// closed 2x2-block fill pattern (the same fixture the kernel tests
    /// use).
    fn setup(seed: u64) -> (CscMatrix, CscMatrix, CscMatrix, CscMatrix) {
        let nb = 16;
        let a = ensure_diagonal(&gen::random_sparse(2 * nb, 0.2, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap();
        let filled = f.filled_matrix(&a).unwrap();
        let diag = filled.sub_matrix(0..nb, 0..nb);
        let upper = filled.sub_matrix(0..nb, nb..2 * nb);
        let lower = filled.sub_matrix(nb..2 * nb, 0..nb);
        let tail = filled.sub_matrix(nb..2 * nb, nb..2 * nb);
        (diag, upper, lower, tail)
    }

    #[test]
    fn planned_getrf_is_bitwise_cv1() {
        for seed in 0..4 {
            let (diag, ..) = setup(seed);
            let mut arena = Vec::new();
            let plan = build_getrf_plan(&diag, &mut arena);
            assert!(plan.searches_avoided > 0);

            let mut unplanned = diag.clone();
            let mut s = KernelScratch::with_capacity(unplanned.nrows());
            let p0 = getrf(&mut unplanned, GetrfVariant::CV1, &mut s, 0.0);
            let mut planned = diag.clone();
            let p1 = getrf_planned(&mut planned, &plan, &arena, 0.0);
            assert_eq!(p0, p1);
            assert_eq!(unplanned.values(), planned.values(), "seed {seed}: GETRF drifted");
        }
    }

    #[test]
    fn planned_trsm_is_bitwise_cv1() {
        for seed in 0..4 {
            let (diag, upper, lower, _) = setup(seed);
            let mut lu = diag.clone();
            let mut s = KernelScratch::with_capacity(lu.nrows());
            getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);

            let mut arena = Vec::new();
            let gplan = build_gessm_plan(&lu, &upper, &mut arena);
            let tplan = build_tstrf_plan(&lu, &lower, &mut arena);
            assert!(gplan.searches_avoided > 0);
            assert!(tplan.searches_avoided > 0);

            let mut u0 = upper.clone();
            gessm(&lu, &mut u0, TrsmVariant::CV1, &mut s);
            let mut u1 = upper.clone();
            gessm_planned(&lu, &mut u1, &gplan, &arena);
            assert_eq!(u0.values(), u1.values(), "seed {seed}: GESSM drifted");

            let mut l0 = lower.clone();
            tstrf(&lu, &mut l0, TrsmVariant::CV1, &mut s);
            let mut l1 = lower.clone();
            tstrf_planned(&lu, &mut l1, &tplan, &arena);
            assert_eq!(l0.values(), l1.values(), "seed {seed}: TSTRF drifted");
        }
    }

    #[test]
    fn planned_ssssm_is_bitwise_cv1() {
        for seed in 0..4 {
            let (diag, upper, lower, tail) = setup(seed);
            let mut lu = diag.clone();
            let mut s = KernelScratch::with_capacity(lu.nrows());
            getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);
            let mut u = upper.clone();
            gessm(&lu, &mut u, TrsmVariant::CV1, &mut s);
            let mut l = lower.clone();
            tstrf(&lu, &mut l, TrsmVariant::CV1, &mut s);

            let mut arena = Vec::new();
            let plan = build_ssssm_plan(&l, &u, &tail, &mut arena);
            assert!(plan.searches_avoided > 0);

            let mut c0 = tail.clone();
            ssssm(&l, &u, &mut c0, SsssmVariant::CV1, &mut s);
            let mut c1 = tail.clone();
            ssssm_planned(&l, &u, &mut c1, &plan, &arena);
            assert_eq!(c0.values(), c1.values(), "seed {seed}: SSSSM drifted");
        }
    }

    #[test]
    fn pool_builds_once_and_reuses() {
        let (diag, upper, ..) = setup(3);
        let mut lu = diag.clone();
        let mut s = KernelScratch::with_capacity(lu.nrows());
        getrf(&mut lu, GetrfVariant::CV1, &mut s, 0.0);

        let sel = KernelSelector::new(1_000, Thresholds::default());
        let mut pool = KernelPlans::with_slots(1, 1, 0, 0);
        assert_eq!(pool.stats().builds, 0);
        assert!(matches!(pool.route_getrf(&sel, 0, &diag), Route::Variant(_)));

        pool.build_getrf(&sel, 0, &diag);
        pool.build_gessm(&sel, 0, &lu, &upper);
        let stats = pool.stats();
        assert_eq!(stats.builds, 2);
        assert!(stats.bytes > 0);

        // Building a filled slot again is a no-op.
        pool.build_getrf(&sel, 0, &diag);
        pool.build_gessm(&sel, 0, &lu, &upper);
        assert_eq!(pool.stats(), stats);
        assert!(matches!(pool.route_getrf(&sel, 0, &diag), Route::Plan(..)));
        assert!(matches!(pool.route_gessm(&sel, 0, &lu, &upper), Route::Plan(..)));
    }

    #[test]
    fn closed_gates_route_to_the_tree_variant_and_build_nothing() {
        let (diag, upper, lower, tail) = setup(3);
        let mut pool = KernelPlans::with_slots(1, 1, 1, 1);
        // A pool filled under open gates still answers a gate-closed
        // selector with the tree's variant: the selector decides per call.
        let open = KernelSelector::new(1_000, Thresholds::default());
        pool.build_getrf(&open, 0, &diag);
        let builds = pool.stats().builds;
        for sel in
            [KernelSelector::new(1_000, Thresholds::unplanned()), KernelSelector::baseline(1_000)]
        {
            pool.build_gessm(&sel, 0, &diag, &upper);
            pool.build_tstrf(&sel, 0, &diag, &lower);
            pool.build_ssssm(&sel, 0, 10.0, &lower, &upper, &tail);
            assert!(matches!(pool.route_getrf(&sel, 0, &diag), Route::Variant(_)));
            assert!(matches!(pool.route_gessm(&sel, 0, &diag, &upper), Route::Variant(_)));
            assert!(matches!(pool.route_tstrf(&sel, 0, &diag, &lower), Route::Variant(_)));
            assert!(matches!(pool.route_ssssm(&sel, 0, 10.0, &lower, &tail), Route::Variant(_)));
        }
        assert_eq!(pool.stats().builds, builds);
    }

    /// Panel precedence is plan, then tile, then tree: a full block small
    /// enough for its planned gate still replays its plan; past the gate
    /// it takes the dense-tile lane; a block with a hole falls to the tree.
    /// SSSSM asks the target first: a full target never has a plan, under
    /// any gate — it takes the tile, or `C_V1` (in place) below the fill
    /// cut; only a target with a hole goes plan, then tree.
    #[test]
    fn full_blocks_route_plan_then_tile_then_tree() {
        let dense = |n: usize| crate::tile::dense_block(n, n, 0);
        let sel = KernelSelector::new(1_000, Thresholds::default());
        let mut pool = KernelPlans::<f64>::with_slots(0, 2, 2, 3);

        let small = dense(8); // 64 nnz, 1 024 FLOPs: under every planned gate
        pool.build_gessm(&sel, 0, &small, &small);
        pool.build_tstrf(&sel, 0, &small, &small);
        assert!(matches!(pool.route_gessm(&sel, 0, &small, &small), Route::Plan(..)));
        assert!(matches!(pool.route_tstrf(&sel, 0, &small, &small), Route::Plan(..)));
        let builds = pool.stats().builds;
        pool.build_ssssm(&sel, 0, 1024.0, &small, &small, &small);
        let routed = pool.route_ssssm(&sel, 0, 1024.0, &small, &small);
        assert!(matches!(routed, Route::Variant(SsssmVariant::DV1)));
        // A diagonal `A`: 128 of the padded 1 024 FLOPs, under the fill cut.
        let thin = small.filter_entries(|i, j| i == j);
        pool.build_ssssm(&sel, 0, 128.0, &thin, &small, &small);
        let routed = pool.route_ssssm(&sel, 0, 128.0, &thin, &small);
        assert!(matches!(routed, Route::Variant(SsssmVariant::CV1)));
        assert_eq!(pool.stats().builds, builds, "a full target builds no plan");
        let holed = small.filter_entries(|i, j| (i, j) != (7, 3));
        pool.build_ssssm(&sel, 2, 126.0, &thin, &holed, &holed);
        assert!(matches!(pool.route_ssssm(&sel, 2, 126.0, &thin, &holed), Route::Plan(..)));

        let big = dense(40); // 1 600 nnz, 128 000 FLOPs: past the gates
        let builds = pool.stats().builds;
        pool.build_gessm(&sel, 1, &big, &big);
        pool.build_tstrf(&sel, 1, &big, &big);
        pool.build_ssssm(&sel, 1, 128_000.0, &big, &big, &big);
        assert!(matches!(pool.route_gessm(&sel, 1, &big, &big), Route::Variant(TrsmVariant::DV1)));
        assert!(matches!(pool.route_tstrf(&sel, 1, &big, &big), Route::Variant(TrsmVariant::DV1)));
        assert!(matches!(
            pool.route_ssssm(&sel, 1, 128_000.0, &big, &big),
            Route::Variant(SsssmVariant::DV1)
        ));
        assert_eq!(pool.stats().builds, builds, "the tile lane builds no plan");

        let holed = big.filter_entries(|i, j| (i, j) != (7, 3));
        pool.build_gessm(&sel, 1, &big, &holed);
        pool.build_ssssm(&sel, 1, 127_920.0, &big, &big, &holed);
        assert!(matches!(
            pool.route_gessm(&sel, 1, &big, &holed),
            Route::Variant(TrsmVariant::CV2)
        ));
        assert!(matches!(
            pool.route_ssssm(&sel, 1, 127_920.0, &big, &holed),
            Route::Variant(SsssmVariant::CV1)
        ));
    }

    /// `plan_bytes` is what the pool holds, not a lower bound on it: the
    /// builders leave every table at capacity == length and
    /// `shrink_to_fit` does the same for the arena they all push into.
    #[test]
    fn pool_holds_exactly_what_it_reports() {
        let (diag, upper, lower, _) = setup(2);
        // The fixture's tail fills in completely, and a full target has no
        // plan: update a block with a hole instead (diagonal × holed).
        let holed = crate::tile::dense_block(8, 8, 0).filter_entries(|i, j| (i, j) != (7, 3));
        let thin = holed.filter_entries(|i, j| i == j);
        let sel = KernelSelector::new(1_000, Thresholds::default());
        let mut pool = KernelPlans::<f64>::with_slots(1, 1, 1, 1);
        pool.build_getrf(&sel, 0, &diag);
        pool.build_gessm(&sel, 0, &diag, &upper);
        pool.build_tstrf(&sel, 0, &diag, &lower);
        pool.build_ssssm(&sel, 0, 126.0, &thin, &holed, &holed);
        assert_eq!(pool.stats().builds, 4);
        let bytes = pool.stats().bytes;
        pool.shrink_to_fit();
        assert_eq!(pool.stats().bytes, bytes, "the definition of plan_bytes is unchanged");

        fn exact<T>(v: &Vec<T>) -> bool {
            !v.is_empty() && v.capacity() == v.len()
        }
        assert!(exact(&pool.arena));
        let (g, l, u, s) = (&pool.getrf[0], &pool.gessm[0], &pool.tstrf[0], &pool.ssssm[0]);
        let (g, l) = (g.as_ref().unwrap(), l.as_ref().unwrap());
        let (u, s) = (u.as_ref().unwrap(), s.as_ref().unwrap());
        assert!(exact(&g.cols) && exact(&g.uents) && exact(&l.srcs));
        assert!(exact(&u.cols) && exact(&u.uents) && exact(&s.entries));
    }

    #[test]
    fn empty_blocks_yield_empty_plans() {
        let e = CscMatrix::<f64>::zeros(8, 8);
        let mut arena = Vec::new();
        let sp = build_ssssm_plan(&e, &e, &e, &mut arena);
        let gp = build_gessm_plan(&e, &e, &mut arena);
        let tp = build_tstrf_plan(&e, &e, &mut arena);
        assert!(sp.entries.is_empty());
        assert!(gp.srcs.is_empty());
        assert!(tp.cols.is_empty());
        assert!(arena.is_empty());

        let mut c = CscMatrix::zeros(8, 8);
        ssssm_planned(&e, &e, &mut c, &sp, &arena);
        let mut b = CscMatrix::zeros(8, 8);
        gessm_planned(&e, &mut b, &gp, &arena);
        tstrf_planned(&e, &mut b, &tp, &arena);
        assert_eq!(c.nnz(), 0);
    }
}

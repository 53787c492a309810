//! The dense-tile kernel lane (`D_V1`): SSSSM, GESSM and TSTRF as
//! register-blocked dense updates straight on the blocks' value arrays.
//!
//! A block whose pattern is completely filled (`nnz == nrows·ncols`)
//! stores its values as a column-major dense matrix, so the sparse
//! kernels' per-entry row indices, scatters and gathers carry no
//! information there. This lane reads none of them: one micro-kernel
//! keeps an `MR × NR` tile of the target in locals across the whole
//! inner-dimension loop and applies `c -= a·b` — a separate multiply and
//! subtract, `k` ascending — from contiguous slices. GESSM and TSTRF are
//! the same micro-kernel over the already solved part of the unknown
//! plus a short in-tile triangular part. An SSSSM operand that is not
//! full is expanded once per call into a zero-filled tile of
//! [`KernelScratch`]; the target, and both blocks of a panel solve, are
//! full by the routing contract ([`crate::KernelSelector::ssssm_on`] and
//! its GESSM/TSTRF siblings are the only places the lane is chosen).
//!
//! **Bitwise contract.** For every target entry the lane performs the
//! sparse variants' subtractions `c -= a[r,k]·b[k,j]` in the same
//! ascending-`k` order (TSTRF's division by `U(j,j)` stays last), plus
//! subtractions of `(±0)·x` for padded structural zeros and for the
//! values the sparse variants skip with `if bkj == 0`. Those leave `c`
//! unchanged whenever `c` is not `-0.0` and `x` is finite — the premise
//! [`crate::ssssm::ssssm_batch`] already rests on (fill starts at `+0.0`,
//! `x − y` is never `-0.0` for `x ≠ -0.0`, and a division, the one
//! operation that can produce `-0.0`, is the last write an entry
//! receives). With a non-finite operand `0·x` is NaN, so a poisoned
//! block stays non-finite; it is never silently repaired.
//! `tests/planned_equivalence.rs` holds the lane to the sparse variants
//! bit for bit, in `f64` and `f32`, debug and release.
//!
//! **Tile shapes.** `NR = 4` columns; `MR = 4` rows for `f64` and 8 for
//! `f32` (the same bytes per tile column, twice the lanes) — measured,
//! see docs/PERFORMANCE.md "Dense-tile lane". Remainders run through the
//! same micro-kernel at halved heights and widths (…, 2, 1), never
//! through a scalar clean-up loop, so every shape keeps the order *and*
//! the speed. Portable Rust: no `unsafe`, no `target_feature`; the
//! baseline SSE2 code generation already removes the index traffic that
//! was the loss, wider vectors are a separate (smaller) prize.

use pangulu_sparse::{CscMatrix, Scalar};

use crate::scratch::KernelScratch;

/// Tile columns held in locals across the `k` loop (both scalar widths).
pub const TILE_COLS: usize = 4;
/// Tile rows for `f64` blocks.
pub const TILE_ROWS_F64: usize = 4;
/// Tile rows for `f32` blocks.
pub const TILE_ROWS_F32: usize = 8;

/// The three operations of the lane, each on an `m × n` column-major
/// unknown/target `x` that the sweep owns mutably.
#[derive(Clone, Copy)]
enum Op<'a, S> {
    /// `X ← X − A·B` with `A` `m × k` and `B` `k × n`.
    Ssssm { a: &'a [S], b: &'a [S], k: usize },
    /// `L X = B` in place, `L` the unit-lower part of an `m × m` factor.
    Gessm { l: &'a [S] },
    /// `X U = B` in place, `U` the upper part of an `n × n` factor.
    Tstrf { u: &'a [S] },
}

/// The micro-kernel: `acc -= A[i0..i0+MR, 0..k1] · B[0..k1, 0..NR]`, `k`
/// ascending, multiply then subtract. `a` is column-major with leading
/// dimension `lda`; `b` starts at the tile's first column, leading
/// dimension `ldb`. One bounds check per `k` step; no index is loaded.
#[inline(always)]
fn sub_product<S: Scalar, const MR: usize, const NR: usize>(
    acc: &mut [[S; MR]; NR],
    a: &[S],
    lda: usize,
    i0: usize,
    b: &[S],
    ldb: usize,
    k1: usize,
) {
    let bcols: [&[S]; NR] = std::array::from_fn(|j| &b[j * ldb..j * ldb + k1]);
    let mut c = *acc;
    for (k, acol) in a[i0..].chunks(lda).take(k1).enumerate() {
        let acol = &acol[..MR];
        for (cj, bj) in c.iter_mut().zip(&bcols) {
            let bkj = bj[k];
            for (cv, &av) in cj.iter_mut().zip(acol) {
                *cv -= av * bkj;
            }
        }
    }
    *acc = c;
}

/// One `MR × NR` tile of `x` at `(i0, j0)`: load, the shared product
/// loop over the finished inner range, the operation's in-tile part,
/// store.
#[inline(always)]
fn tile<S: Scalar, const MR: usize, const NR: usize>(
    op: Op<'_, S>,
    x: &mut [S],
    m: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[S::ZERO; MR]; NR];
    for (j, col) in acc.iter_mut().enumerate() {
        col.copy_from_slice(&x[(j0 + j) * m + i0..][..MR]);
    }
    match op {
        Op::Ssssm { a, b, k } => sub_product(&mut acc, a, m, i0, &b[j0 * k..], k, k),
        Op::Gessm { l } => {
            // Rows above the tile are solved: their contribution first,
            // then the unit-lower triangle inside the tile, ascending k.
            sub_product(&mut acc, l, m, i0, &x[j0 * m..], m, i0);
            for k in 0..MR {
                let lcol = &l[(i0 + k) * m + i0..][..MR];
                for col in acc.iter_mut() {
                    let xk = col[k];
                    for r in k + 1..MR {
                        col[r] -= lcol[r] * xk;
                    }
                }
            }
        }
        Op::Tstrf { u } => {
            // Columns left of the tile are solved: their contribution
            // first, then the upper triangle inside the tile; each
            // column's division by U(j,j) is its last operation.
            sub_product(&mut acc, x, m, i0, &u[j0 * n..], n, j0);
            for j in 0..NR {
                let ucol = &u[(j0 + j) * n + j0..][..=j];
                let (solved, rest) = acc.split_at_mut(j);
                let col = &mut rest[0];
                for (src, &ukj) in solved.iter().zip(ucol) {
                    for (cv, &sv) in col.iter_mut().zip(src) {
                        *cv -= sv * ukj;
                    }
                }
                let ujj = ucol[j];
                for cv in col.iter_mut() {
                    *cv /= ujj;
                }
            }
        }
    }
    for (j, col) in acc.iter().enumerate() {
        x[(j0 + j) * m + i0..][..MR].copy_from_slice(col);
    }
}

/// All `MR`-row tiles of the `NR`-wide column group at `j0` that still
/// fit below `*i0`, top to bottom.
#[inline(always)]
fn row_tiles<S: Scalar, const MR: usize, const NR: usize>(
    op: Op<'_, S>,
    x: &mut [S],
    m: usize,
    n: usize,
    i0: &mut usize,
    j0: usize,
) {
    while *i0 + MR <= m {
        tile::<S, MR, NR>(op, x, m, n, *i0, j0);
        *i0 += MR;
    }
}

/// One `NR`-wide column group: full-height tiles first, the row
/// remainder at halved heights.
#[inline(always)]
fn col_group<S: Scalar, const NR: usize>(
    op: Op<'_, S>,
    x: &mut [S],
    m: usize,
    n: usize,
    j0: usize,
) {
    let mut i0 = 0;
    if S::WIDTH == 4 {
        row_tiles::<S, TILE_ROWS_F32, NR>(op, x, m, n, &mut i0, j0);
    }
    row_tiles::<S, TILE_ROWS_F64, NR>(op, x, m, n, &mut i0, j0);
    row_tiles::<S, 2, NR>(op, x, m, n, &mut i0, j0);
    row_tiles::<S, 1, NR>(op, x, m, n, &mut i0, j0);
}

/// Visits every tile of the `m × n` unknown: column groups left to right
/// (outer, widths 4 then 2 then 1), each swept top to bottom (inner).
/// GESSM needs the rows above a tile finished, TSTRF the columns left of
/// it — this one order gives both, and SSSSM does not care. The `NR`
/// columns of `B` stay in L1 while `A` streams past once per group;
/// measured against rows-outer it is ≈ 20 % faster at `nb = 119`.
#[inline(always)]
fn sweep<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
    let mut j0 = 0;
    while j0 + TILE_COLS <= n {
        col_group::<S, TILE_COLS>(op, x, m, n, j0);
        j0 += TILE_COLS;
    }
    if j0 + 2 <= n {
        col_group::<S, 2>(op, x, m, n, j0);
        j0 += 2;
    }
    if j0 < n {
        col_group::<S, 1>(op, x, m, n, j0);
    }
}

/// Whether `blk` stores every entry of its shape, i.e. its value array
/// is the block as a column-major dense matrix.
#[inline]
pub fn is_full<S: Scalar>(blk: &CscMatrix<S>) -> bool {
    blk.nnz() == blk.nrows() * blk.ncols()
}

/// `blk` as a column-major dense matrix: its own value array when full,
/// otherwise `buf` zero-filled and scattered into (grown on demand,
/// reused across calls).
fn dense_view<'s, S: Scalar>(blk: &'s CscMatrix<S>, buf: &'s mut Vec<S>) -> &'s [S] {
    if is_full(blk) {
        return blk.values();
    }
    let m = blk.nrows();
    buf.clear();
    buf.resize(m * blk.ncols(), S::ZERO);
    for (j, col) in buf.chunks_exact_mut(m).enumerate() {
        let (rows, vals) = blk.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            col[r] = v;
        }
    }
    buf
}

/// Dense-tile `C ← C − A·B` on a full target `c`.
///
/// # Panics
/// Panics if `c` is not full (the routing contract).
// Out of line for the reason `ssssm::ssssm` is: inlined into an
// executor's task loop the tile loops compete for the inliner's budget.
#[inline(never)]
pub(crate) fn ssssm_tile<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c: &mut CscMatrix<S>,
    scratch: &mut KernelScratch<S>,
) {
    assert!(is_full(c), "dense-tile SSSSM routed to a target that is not full");
    let (m, n) = (c.nrows(), c.ncols());
    let KernelScratch { tile_a, tile_b, .. } = scratch;
    let op = Op::Ssssm { a: dense_view(a, tile_a), b: dense_view(b, tile_b), k: a.ncols() };
    sweep(op, c.values_mut(), m, n);
}

/// Dense-tile `L X = B` on a full factor block and a full panel block.
///
/// # Panics
/// Panics if either block is not full (the routing contract).
#[inline(never)]
pub(crate) fn gessm_tile<S: Scalar>(diag_lu: &CscMatrix<S>, b: &mut CscMatrix<S>) {
    assert!(is_full(diag_lu) && is_full(b), "dense-tile GESSM routed to blocks that are not full");
    let (m, n) = (b.nrows(), b.ncols());
    sweep(Op::Gessm { l: diag_lu.values() }, b.values_mut(), m, n);
}

/// Dense-tile `X U = B` on a full factor block and a full panel block.
///
/// # Panics
/// Panics if either block is not full (the routing contract).
#[inline(never)]
pub(crate) fn tstrf_tile<S: Scalar>(diag_lu: &CscMatrix<S>, b: &mut CscMatrix<S>) {
    assert!(is_full(diag_lu) && is_full(b), "dense-tile TSTRF routed to blocks that are not full");
    let (m, n) = (b.nrows(), b.ncols());
    sweep(Op::Tstrf { u: diag_lu.values() }, b.values_mut(), m, n);
}

/// Test fixture shared by this crate's unit tests: a full `m × n` block
/// of distinct values in [0.25, 1.7), the diagonal lifted by 8.
#[cfg(test)]
pub(crate) fn dense_block(m: usize, n: usize, salt: usize) -> CscMatrix {
    let mut coo = pangulu_sparse::CooMatrix::new(m, n);
    for j in 0..n {
        for i in 0..m {
            let v = 0.25 + ((i * 31 + j * 17 + salt * 7) % 23) as f64 / 16.0;
            coo.push(i, j, if i == j { v + 8.0 } else { v }).unwrap();
        }
    }
    coo.to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive per-entry loops the lane must reproduce bit for bit.
    #[test]
    fn sweep_matches_naive_ascending_k_loops_on_every_remainder() {
        for (m, k, n) in [(1, 1, 1), (3, 2, 5), (7, 9, 6), (13, 4, 11), (16, 16, 16)] {
            let (a, b, c0) = (dense_block(m, k, 1), dense_block(k, n, 2), dense_block(m, n, 3));
            let mut want = c0.values().to_vec();
            for j in 0..n {
                for r in 0..m {
                    for kk in 0..k {
                        want[j * m + r] -= a.values()[kk * m + r] * b.values()[j * k + kk];
                    }
                }
            }
            let mut c = c0.clone();
            ssssm_tile(&a, &b, &mut c, &mut KernelScratch::default());
            assert_eq!(c.values(), &want[..], "SSSSM {m}x{k}x{n}");

            let lu = dense_block(m, m, 4);
            let mut want = c0.values().to_vec();
            for j in 0..n {
                for kk in 0..m {
                    for r in kk + 1..m {
                        want[j * m + r] -= lu.values()[kk * m + r] * want[j * m + kk];
                    }
                }
            }
            let mut x = c0.clone();
            gessm_tile(&lu, &mut x);
            assert_eq!(x.values(), &want[..], "GESSM {m}x{n}");

            let lu = dense_block(n, n, 5);
            let mut want = c0.values().to_vec();
            for j in 0..n {
                for kk in 0..j {
                    for r in 0..m {
                        want[j * m + r] -= want[kk * m + r] * lu.values()[j * n + kk];
                    }
                }
                for r in 0..m {
                    want[j * m + r] /= lu.values()[j * n + j];
                }
            }
            let mut x = c0.clone();
            tstrf_tile(&lu, &mut x);
            assert_eq!(x.values(), &want[..], "TSTRF {m}x{n}");
        }
    }

    /// Expansion tiles are grown once and then reused: a second call of
    /// the same shape neither reallocates nor moves them.
    #[test]
    fn expansion_tiles_are_reused_across_calls() {
        let keep = |i: usize, j: usize| !(i + 2 * j).is_multiple_of(5);
        let a = dense_block(9, 9, 1).filter_entries(keep);
        let b = dense_block(9, 9, 2).filter_entries(keep);
        assert!(!is_full(&a) && !is_full(&b));
        let mut scratch = KernelScratch::default();
        let mut c = dense_block(9, 9, 3);
        ssssm_tile(&a, &b, &mut c, &mut scratch);
        let held = |s: &KernelScratch| {
            (s.tile_a.as_ptr(), s.tile_a.capacity(), s.tile_b.as_ptr(), s.tile_b.capacity())
        };
        let first = held(&scratch);
        assert!(first.1 >= 81 && first.3 >= 81);
        ssssm_tile(&a, &b, &mut c, &mut scratch);
        assert_eq!(held(&scratch), first);
        // Full operands are read in place and leave the tiles alone.
        let full = dense_block(9, 9, 4);
        ssssm_tile(&full, &full, &mut c, &mut scratch);
        assert_eq!(held(&scratch), first);
    }

    #[test]
    #[should_panic(expected = "not full")]
    fn sparse_target_is_rejected() {
        let a = dense_block(4, 4, 1);
        let mut c = dense_block(4, 4, 2).filter_entries(|i, j| i != j);
        ssssm_tile(&a, &a, &mut c, &mut KernelScratch::default());
    }
}

//! The dense-tile kernel lane (`D_V1`): all four kernel classes as
//! register-blocked dense loops straight on the blocks' value arrays.
//!
//! A block whose pattern is completely filled (`nnz == nrows·ncols`)
//! stores its values as a column-major dense matrix, so the sparse
//! kernels' per-entry row indices, scatters and gathers carry no
//! information there. This lane reads none of them: one micro-kernel
//! keeps an `MR × NR` tile of the target in locals across the whole
//! inner-dimension loop and applies `c -= a·b` — a separate multiply and
//! subtract, `k` ascending — from contiguous slices. TSTRF is the same
//! micro-kernel over the already solved columns of the unknown plus an
//! `NR × NR` in-tile triangle. GESSM runs as TSTRF on transposed blocks
//! (`L X = B` is `Xᵀ Lᵀ = Bᵀ`): `Bᵀ` is copied into a scratch tile and
//! `Lᵀ` read from `L` by rows, so its in-tile triangle is `NR × NR` too
//! instead of an `MR × MR` one that would run scalar. GETRF factors a full
//! diagonal block in place in `C_V1`'s left-looking order: column groups
//! left to right, each group's `U` rows (the micro-kernel, then a
//! unit-lower solve in the tile), its diagonal tile (the micro-kernel,
//! then a small LU that floors each pivot) and its `L` rows (the
//! micro-kernel, then a solve against the diagonal tile's `U` whose
//! division by the pivot is each entry's last operation). An SSSSM
//! operand that is not full is expanded once per call into a zero-filled
//! tile of [`KernelScratch`], and so are a panel solve's factor block and
//! panel block (only the panel's stored entries are written back); the
//! SSSSM target and a GETRF block are full by the routing contract
//! ([`crate::KernelSelector::ssssm_on`] and its GETRF/GESSM/TSTRF
//! siblings are the only places the lane is chosen).
//!
//! **Bitwise contract.** For every target entry the lane performs the
//! sparse variants' subtractions `c -= a[r,k]·b[k,j]` in the same
//! ascending-`k` order (TSTRF's division by `U(j,j)` stays last; GESSM's
//! transposed products `x_k·L(r, k)` are the same IEEE products), plus,
//! in SSSSM, GESSM and TSTRF, subtractions of `(±0)·x` for padded
//! structural zeros and for the values the sparse variants skip with
//! `if bkj == 0`. Those leave `c` unchanged whenever `c` is not `-0.0`
//! and `x` is finite — and no update target holds `-0.0` (the solver
//! loads a zero input as `+0.0`, fill starts at `+0.0`, `x − y` is never
//! `-0.0` for `x ≠ -0.0`, and a division, the one operation that can
//! produce `-0.0`, is the last write an entry receives). A panel block
//! that is not full is closed under its factor block (symbolic fill), so
//! the zeros its expansion pads in stay `+0.0` and are never written
//! back. With a non-finite operand `0·x` is NaN, so a poisoned
//! block stays non-finite; it is never silently repaired. GETRF reads its
//! block's own input values, which may hold `-0.0`, and can make
//! non-finite `L` entries itself (a zero pivot without a floor), so it
//! skips a zero `U(k, j)` exactly as `C_V1` does: the product of a
//! column group runs the micro-kernel's skipping instance once the
//! group's finished `U` rows hold an exact zero, and the plain one until
//! then. It is therefore `C_V1` bit for bit on every input, `-0.0` and
//! NaN included. `tests/planned_equivalence.rs` and
//! `tests/tile_equivalence.rs` hold the lane to the sparse variants bit
//! for bit, in `f64` and `f32`, debug and release.
//!
//! **Instances and tile shapes.** The four entry points dispatch alike
//! (the panel and update sweep at one point, GETRF's at another): on a
//! CPU with AVX-512 ([`crate::isa::avx512`]) they run an
//! `#[target_feature(enable = "avx512f")]` instance of the generic sweep,
//! else on one with AVX2 ([`crate::isa::avx2`]) an `avx2` instance,
//! elsewhere its portable (SSE2) instance — the pattern of `pangulu-core`'s
//! `sweep_panel`. The tile shape belongs to the instance: `NR = 4`
//! columns in all three; `MR = 4` rows for `f64` and 8 for `f32` in the
//! portable one ([`TILE_ROWS_F64`]), 8 and 16 in the AVX2 one
//! ([`TILE_ROWS_F64_AVX2`]) — eight vector accumulators either way — and
//! 32 and 64 in the AVX-512 one ([`TILE_ROWS_F64_AVX512`]), sixteen; `f32`
//! holds the same bytes per tile column as `f64` at twice the lanes. The
//! taller tile, not the wider vectors alone, is what pays (measured, see
//! docs/PERFORMANCE.md "Dense-tile lane"). No instance fuses a multiply
//! into its subtraction (`avx512f` implies `fma` for code generation, but
//! Rust never contracts `c - a*b`), so all three perform the same
//! multiplies and subtractions in the same order and give the same bits.
//! A row remainder past half a full-height tile is covered by one more
//! full-height tile shifted up to end at the last row: it recomputes the
//! rows the tile above it stored and stores only the new ones (every row
//! of an SSSSM or TSTRF sweep is computed independently of the others,
//! so the bits are the same). On kkt's 119 rows that is 64 + 64 tiles in
//! `f32` and 32 + 32 + 32 + 32 in `f64`, where the cascade ran
//! 64 + 32 + 16 + 4 + 2 + 1 and 32 + 32 + 32 + 16 + 4 + 2 + 1. Blocks
//! shorter than one tile and smaller remainders run the same micro-kernel
//! at halved heights (…, 2, 1), and column remainders at widths 2 and 1,
//! never through a scalar clean-up loop, so every shape keeps the order
//! *and* the speed. GETRF keeps the cascade for its row remainders.

use pangulu_sparse::{CscMatrix, Scalar};

use crate::getrf::apply_floor;
use crate::isa;
use crate::scratch::KernelScratch;

/// Tile columns held in locals across the `k` loop (every instance, both
/// scalar widths).
pub const TILE_COLS: usize = 4;
/// `f64` tile rows of the portable instance; its `f32` tiles are twice
/// as tall.
pub const TILE_ROWS_F64: usize = 4;
/// `f64` tile rows of the AVX2 instance; its `f32` tiles are twice as
/// tall.
pub const TILE_ROWS_F64_AVX2: usize = 8;
/// `f64` tile rows of the AVX-512 instance; its `f32` tiles are twice as
/// tall.
pub const TILE_ROWS_F64_AVX512: usize = 32;

/// Tile rows for `S` in the instance whose `f64` tiles are `rows_f64`
/// tall: `f32` fits twice the lanes in the same bytes.
const fn tile_height<S: Scalar>(rows_f64: usize) -> usize {
    if S::WIDTH == 4 {
        2 * rows_f64
    } else {
        rows_f64
    }
}

/// Tile rows for `S` in the instance this CPU runs.
pub fn tile_rows<S: Scalar>() -> usize {
    tile_height::<S>(if isa::avx512() {
        TILE_ROWS_F64_AVX512
    } else if isa::avx2() {
        TILE_ROWS_F64_AVX2
    } else {
        TILE_ROWS_F64
    })
}

/// The three operations of the sweep, each on an `m × n` column-major
/// unknown/target `x` that the sweep owns mutably.
#[derive(Clone, Copy)]
enum Op<'a, S> {
    /// `X ← X − A·B` with `A` `m × k` and `B` `k × n`.
    Ssssm { a: &'a [S], b: &'a [S], k: usize },
    /// `X U = B` in place, `U` the upper part of an `n × n` factor.
    Tstrf { u: &'a [S] },
    /// `X Lᵀ = B` in place, `L` the unit-lower part of an `n × n`
    /// factor: GESSM's `L Y = C` on `X = Yᵀ` ([`gessm_with`]).
    GessmT { l: &'a [S] },
}

/// One sweep instance of the lane over an `m × n` unknown.
type Sweep<S> = for<'a> fn(Op<'a, S>, &mut [S], usize, usize);

/// The micro-kernel: `acc -= A[i0..i0+MR, 0..k1] · B[0..k1, 0..NR]`, `k`
/// ascending, multiply then subtract. `a` is column-major with leading
/// dimension `lda`; `b` starts at the tile's first column, leading
/// dimension `ldb`. One bounds check per `k` step; no index is loaded.
/// With `SKIP_ZEROS` a `B(k, j)` equal to zero contributes nothing, as
/// in the sparse variants (GETRF's instance, where the product must be
/// exact on `-0.0` and non-finite entries).
#[inline(always)]
fn sub_product<S: Scalar, const MR: usize, const NR: usize, const SKIP_ZEROS: bool>(
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
            if SKIP_ZEROS && bkj == S::ZERO {
                continue;
            }
            for (cv, &av) in cj.iter_mut().zip(acol) {
                *cv -= av * bkj;
            }
        }
    }
    *acc = c;
}

/// [`sub_product`] with `B` read by rows: `B(k, j)` at `b[k·ldb + j]`,
/// `b` starting at the tile's first column — how GESSM's transposed
/// solve reads `Lᵀ` straight from `L` ([`gessm_with`]).
#[inline(always)]
fn sub_product_rows<S: Scalar, const MR: usize, const NR: usize>(
    acc: &mut [[S; MR]; NR],
    a: &[S],
    lda: usize,
    i0: usize,
    b: &[S],
    ldb: usize,
    k1: usize,
) {
    let mut c = *acc;
    for (k, acol) in a[i0..].chunks(lda).take(k1).enumerate() {
        let acol = &acol[..MR];
        let brow = &b[k * ldb..][..NR];
        for (cj, &bkj) in c.iter_mut().zip(brow) {
            for (cv, &av) in cj.iter_mut().zip(acol) {
                *cv -= av * bkj;
            }
        }
    }
    *acc = c;
}

/// One `MR × NR` tile of `x` at `(i0, j0)`: load, the shared product
/// loop over the finished inner range, the operation's in-tile part,
/// store. Its first `done` rows were stored by an earlier tile of the
/// group (a tail tile shifted up to end at row `m`): every row of `x` is
/// computed independently of the others, so they are recomputed with
/// the rest and not stored.
#[inline(always)]
fn tile<S: Scalar, const MR: usize, const NR: usize>(
    op: Op<'_, S>,
    x: &mut [S],
    m: usize,
    n: usize,
    (i0, j0): (usize, usize),
    done: usize,
) {
    let mut acc = [[S::ZERO; MR]; NR];
    for (j, col) in acc.iter_mut().enumerate() {
        col.copy_from_slice(&x[(j0 + j) * m + i0..][..MR]);
    }
    match op {
        Op::Ssssm { a, b, k } => {
            sub_product::<S, MR, NR, false>(&mut acc, a, m, i0, &b[j0 * k..], k, k)
        }
        Op::GessmT { l } => {
            // As TSTRF with `U = Lᵀ`, read from `L` by rows, and a unit
            // diagonal: no division.
            sub_product_rows::<S, MR, NR>(&mut acc, x, m, i0, &l[j0..], n, j0);
            for j in 1..NR {
                let (solved, rest) = acc.split_at_mut(j);
                let col = &mut rest[0];
                for (k, src) in solved.iter().enumerate() {
                    let lkj = l[(j0 + k) * n + j0 + j];
                    for (cv, &sv) in col.iter_mut().zip(src) {
                        *cv -= sv * lkj;
                    }
                }
            }
        }
        Op::Tstrf { u } => {
            // Columns left of the tile are solved: their contribution
            // first, then the upper triangle inside the tile; each
            // column's division by U(j,j) is its last operation.
            sub_product::<S, MR, NR, false>(&mut acc, x, m, i0, &u[j0 * n..], n, j0);
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
        x[(j0 + j) * m + i0 + done..][..MR - done].copy_from_slice(&col[done..]);
    }
}

/// Whether a remainder of `rest` rows under full-height `mr`-row tiles
/// is covered by one more full-height tile shifted up to end at the last
/// row: when it is more than half a tile. The shifted tile recomputes
/// the rows the tile above stored, which pays against the halved-height
/// cascade only past half a tile (at 69 rows, five past one 64-row
/// tile, shifting lost 13–18 %; docs/PERFORMANCE.md "Shifted tail tiles
/// and filled panels").
const fn shifts(rest: usize, mr: usize) -> bool {
    2 * rest > mr
}

/// All `MR`-row tiles of the `NR`-wide column group at `j0` that still
/// fit below `*i0`, top to bottom. At the instance's full height, a
/// remainder that [`shifts`] is then covered by one tile shifted up to
/// end at row `m`; a block shorter than one tile has none.
#[inline(always)]
fn row_tiles<S: Scalar, const ROWS_F64: usize, const MR: usize, const NR: usize>(
    op: Op<'_, S>,
    x: &mut [S],
    (m, n): (usize, usize),
    i0: &mut usize,
    j0: usize,
) {
    while *i0 + MR <= m {
        tile::<S, MR, NR>(op, x, m, n, (*i0, j0), 0);
        *i0 += MR;
    }
    let rest = m - *i0;
    if MR == tile_height::<S>(ROWS_F64) && *i0 > 0 && shifts(rest, MR) {
        tile::<S, MR, NR>(op, x, m, n, (m - MR, j0), MR - rest);
        *i0 = m;
    }
}

/// One `NR`-wide column group: full-height tiles first (the instance's
/// height for `S`, at most 64), then either one shifted tail tile or the
/// remainder at halved heights.
#[inline(always)]
fn col_group<S: Scalar, const ROWS_F64: usize, const NR: usize>(
    op: Op<'_, S>,
    x: &mut [S],
    m: usize,
    n: usize,
    j0: usize,
) {
    let top = tile_height::<S>(ROWS_F64);
    let (mut i0, dims) = (0, (m, n));
    if top >= 64 {
        row_tiles::<S, ROWS_F64, 64, NR>(op, x, dims, &mut i0, j0);
    }
    if top >= 32 {
        row_tiles::<S, ROWS_F64, 32, NR>(op, x, dims, &mut i0, j0);
    }
    if top >= 16 {
        row_tiles::<S, ROWS_F64, 16, NR>(op, x, dims, &mut i0, j0);
    }
    if top >= 8 {
        row_tiles::<S, ROWS_F64, 8, NR>(op, x, dims, &mut i0, j0);
    }
    row_tiles::<S, ROWS_F64, 4, NR>(op, x, dims, &mut i0, j0);
    row_tiles::<S, ROWS_F64, 2, NR>(op, x, dims, &mut i0, j0);
    row_tiles::<S, ROWS_F64, 1, NR>(op, x, dims, &mut i0, j0);
}

/// Visits every tile of the `m × n` unknown: column groups left to right
/// (outer, widths 4 then 2 then 1), each swept top to bottom (inner).
/// GESSM needs the rows above a tile finished, TSTRF the columns left of
/// it — this one order gives both, and SSSSM does not care. The `NR`
/// columns of `B` stay in L1 while `A` streams past once per group;
/// measured against rows-outer it is ≈ 20 % faster at `nb = 119`.
/// `ROWS_F64` names the instance ([`TILE_ROWS_F64`],
/// [`TILE_ROWS_F64_AVX2`] or [`TILE_ROWS_F64_AVX512`]).
#[inline(always)]
fn sweep<S: Scalar, const ROWS_F64: usize>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
    let mut j0 = 0;
    while j0 + TILE_COLS <= n {
        col_group::<S, ROWS_F64, TILE_COLS>(op, x, m, n, j0);
        j0 += TILE_COLS;
    }
    if j0 + 2 <= n {
        col_group::<S, ROWS_F64, 2>(op, x, m, n, j0);
        j0 += 2;
    }
    if j0 < n {
        col_group::<S, ROWS_F64, 1>(op, x, m, n, j0);
    }
}

/// [`sweep`] compiled for AVX-512 with its 16-accumulator tile. Nothing
/// is fused, so the bits are the portable instance's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_avx512<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
    sweep::<S, TILE_ROWS_F64_AVX512>(op, x, m, n);
}

/// [`sweep`] compiled for AVX2 with its taller tile. Only `avx2` is
/// enabled, not `fma`, so the bits are the portable instance's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
    sweep::<S, TILE_ROWS_F64_AVX2>(op, x, m, n);
}

/// The lane's one dispatch point: the widest instance the CPU runs.
#[inline(always)]
fn sweep_dispatched<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if isa::avx512() {
        // SAFETY: `sweep_avx512` enables only `avx512f`, which the CPU
        // was just detected to support.
        return unsafe { sweep_avx512(op, x, m, n) };
    }
    #[cfg(target_arch = "x86_64")]
    if isa::avx2() {
        // SAFETY: `sweep_avx2` enables only `avx2`, which the CPU was
        // just detected to support.
        return unsafe { sweep_avx2(op, x, m, n) };
    }
    sweep::<S, TILE_ROWS_F64>(op, x, m, n);
}

/// Where a GETRF tile sits in its column group: above the group's
/// diagonal tile, on it, or below it.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    Upper,
    Diag,
    Lower,
}

/// The state of one GETRF sweep over an `n × n` block.
struct Lu {
    n: usize,
    pivot_floor: f64,
    perturbed: usize,
    /// Whether the finished `U` rows of the current column group hold an
    /// exact zero: while they do not, the products skip no `k` and run
    /// the plain micro-kernel.
    zero_in_u: bool,
}

/// One `MR × NR` GETRF tile of `x` at `(i0, j0)`, in `C_V1`'s per-entry
/// order: the product over the inner range every row of the tile has
/// finished (`k < min(i0, j0)`), then the part inside the tile — a
/// unit-lower solve above the group's diagonal, the small LU on it, and
/// the solve against its `U` below it, each pivot floored and each
/// division the entry's last operation. A `U(k, j)` equal to zero is
/// skipped, as `C_V1` skips it.
#[inline(always)]
fn lu_tile<S: Scalar, const MR: usize, const NR: usize>(
    x: &mut [S],
    lu: &mut Lu,
    part: Part,
    i0: usize,
    j0: usize,
) {
    let n = lu.n;
    let mut acc = [[S::ZERO; MR]; NR];
    for (j, col) in acc.iter_mut().enumerate() {
        col.copy_from_slice(&x[(j0 + j) * n + i0..][..MR]);
    }
    let (b, k1) = (&x[j0 * n..], i0.min(j0));
    if lu.zero_in_u {
        sub_product::<S, MR, NR, true>(&mut acc, x, n, i0, b, n, k1);
    } else {
        sub_product::<S, MR, NR, false>(&mut acc, x, n, i0, b, n, k1);
    }
    match part {
        Part::Upper => {
            for k in 0..MR {
                let lcol = &x[(i0 + k) * n + i0..][..MR];
                for col in acc.iter_mut() {
                    let xk = col[k];
                    if xk == S::ZERO {
                        continue;
                    }
                    for r in k + 1..MR {
                        col[r] -= lcol[r] * xk;
                    }
                }
            }
            lu.zero_in_u |= acc.iter().flatten().any(|&v| v == S::ZERO);
        }
        Part::Diag => {
            for j in 0..NR {
                let (done, rest) = acc.split_at_mut(j);
                let col = &mut rest[0];
                for (k, src) in done.iter().enumerate() {
                    let ukj = col[k];
                    if ukj == S::ZERO {
                        continue;
                    }
                    for r in k + 1..MR {
                        col[r] -= src[r] * ukj;
                    }
                }
                let mut pivot = col[j];
                lu.perturbed += apply_floor(&mut pivot, lu.pivot_floor);
                col[j] = pivot;
                for v in &mut col[j + 1..] {
                    *v /= pivot;
                }
            }
        }
        Part::Lower => {
            for j in 0..NR {
                let ucol = &x[(j0 + j) * n + j0..][..=j];
                let (done, rest) = acc.split_at_mut(j);
                let col = &mut rest[0];
                for (src, &ukj) in done.iter().zip(ucol) {
                    if ukj == S::ZERO {
                        continue;
                    }
                    for (cv, &sv) in col.iter_mut().zip(src) {
                        *cv -= sv * ukj;
                    }
                }
                let pivot = ucol[j];
                for cv in col.iter_mut() {
                    *cv /= pivot;
                }
            }
        }
    }
    for (j, col) in acc.iter().enumerate() {
        x[(j0 + j) * n + i0..][..MR].copy_from_slice(col);
    }
}

/// All `MR`-row tiles of `part` from `*i0` that fit above `end`.
#[inline(always)]
fn lu_tiles<S: Scalar, const MR: usize, const NR: usize>(
    x: &mut [S],
    lu: &mut Lu,
    part: Part,
    i0: &mut usize,
    end: usize,
    j0: usize,
) {
    while *i0 + MR <= end {
        lu_tile::<S, MR, NR>(x, lu, part, *i0, j0);
        *i0 += MR;
    }
}

/// Rows `start..end` of `part` in the instance's tiles, the remainder at
/// halved heights.
#[inline(always)]
fn lu_rows<S: Scalar, const ROWS_F64: usize, const NR: usize>(
    x: &mut [S],
    lu: &mut Lu,
    part: Part,
    start: usize,
    end: usize,
    j0: usize,
) {
    let top = tile_height::<S>(ROWS_F64);
    let mut i0 = start;
    if top >= 64 {
        lu_tiles::<S, 64, NR>(x, lu, part, &mut i0, end, j0);
    }
    if top >= 32 {
        lu_tiles::<S, 32, NR>(x, lu, part, &mut i0, end, j0);
    }
    if top >= 16 {
        lu_tiles::<S, 16, NR>(x, lu, part, &mut i0, end, j0);
    }
    if top >= 8 {
        lu_tiles::<S, 8, NR>(x, lu, part, &mut i0, end, j0);
    }
    lu_tiles::<S, 4, NR>(x, lu, part, &mut i0, end, j0);
    lu_tiles::<S, 2, NR>(x, lu, part, &mut i0, end, j0);
    lu_tiles::<S, 1, NR>(x, lu, part, &mut i0, end, j0);
}

/// One `NR`-wide column group of the left-looking LU: its `U` rows top
/// to bottom, its diagonal tile, then its `L` rows top to bottom.
#[inline(always)]
fn lu_group<S: Scalar, const ROWS_F64: usize, const NR: usize>(
    x: &mut [S],
    lu: &mut Lu,
    j0: usize,
) {
    lu.zero_in_u = false;
    lu_rows::<S, ROWS_F64, NR>(x, lu, Part::Upper, 0, j0, j0);
    lu_tile::<S, NR, NR>(x, lu, Part::Diag, j0, j0);
    lu_rows::<S, ROWS_F64, NR>(x, lu, Part::Lower, j0 + NR, lu.n, j0);
}

/// The GETRF sweep: column groups left to right, widths 4 then 2 then 1,
/// as [`sweep`] visits them. Returns the perturbed-pivot count.
#[inline(always)]
fn lu_sweep<S: Scalar, const ROWS_F64: usize>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
    let mut lu = Lu { n, pivot_floor, perturbed: 0, zero_in_u: false };
    let mut j0 = 0;
    while j0 + TILE_COLS <= n {
        lu_group::<S, ROWS_F64, TILE_COLS>(x, &mut lu, j0);
        j0 += TILE_COLS;
    }
    if j0 + 2 <= n {
        lu_group::<S, ROWS_F64, 2>(x, &mut lu, j0);
        j0 += 2;
    }
    if j0 < n {
        lu_group::<S, ROWS_F64, 1>(x, &mut lu, j0);
    }
    lu.perturbed
}

/// [`lu_sweep`] compiled for AVX-512, as [`sweep_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lu_sweep_avx512<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
    lu_sweep::<S, TILE_ROWS_F64_AVX512>(x, n, pivot_floor)
}

/// [`lu_sweep`] compiled for AVX2, as [`sweep_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lu_sweep_avx2<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
    lu_sweep::<S, TILE_ROWS_F64_AVX2>(x, n, pivot_floor)
}

/// The GETRF sweep's dispatch point, as [`sweep_dispatched`].
#[inline(always)]
fn lu_dispatched<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
    #[cfg(target_arch = "x86_64")]
    if isa::avx512() {
        // SAFETY: `lu_sweep_avx512` enables only `avx512f`, which the CPU
        // was just detected to support.
        return unsafe { lu_sweep_avx512(x, n, pivot_floor) };
    }
    #[cfg(target_arch = "x86_64")]
    if isa::avx2() {
        // SAFETY: `lu_sweep_avx2` enables only `avx2`, which the CPU was
        // just detected to support.
        return unsafe { lu_sweep_avx2(x, n, pivot_floor) };
    }
    lu_sweep::<S, TILE_ROWS_F64>(x, n, pivot_floor)
}

/// Whether `blk` stores every entry of its shape, i.e. its value array
/// is the block as a column-major dense matrix.
#[inline]
pub fn is_full<S: Scalar>(blk: &CscMatrix<S>) -> bool {
    blk.nnz() == blk.nrows() * blk.ncols()
}

/// `blk` scattered into `buf`, zero-filled and column-major (grown on
/// demand, reused across calls).
fn expand<S: Scalar>(blk: &CscMatrix<S>, buf: &mut Vec<S>) {
    let m = blk.nrows();
    buf.clear();
    buf.resize(m * blk.ncols(), S::ZERO);
    for (j, col) in buf.chunks_exact_mut(m.max(1)).enumerate() {
        let (rows, vals) = blk.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            col[r] = v;
        }
    }
}

/// `blk` as a column-major dense matrix: its own value array when full,
/// otherwise `buf` expanded from it.
fn dense_view<'s, S: Scalar>(blk: &'s CscMatrix<S>, buf: &'s mut Vec<S>) -> &'s [S] {
    if is_full(blk) {
        return blk.values();
    }
    expand(blk, buf);
    buf
}

/// Runs `f` on `blk` as a column-major dense matrix: its own value array
/// when full, otherwise `buf` expanded from it, of which only the
/// entries `blk` stores are written back.
fn on_dense<S: Scalar>(blk: &mut CscMatrix<S>, buf: &mut Vec<S>, f: impl FnOnce(&mut [S])) {
    if is_full(blk) {
        return f(blk.values_mut());
    }
    expand(blk, buf);
    f(buf);
    let m = blk.nrows();
    for (j, col) in buf.chunks_exact(m.max(1)).enumerate() {
        let (rows, vals) = blk.col_mut(j);
        for (&r, v) in rows.iter().zip(vals) {
            *v = col[r];
        }
    }
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
    sweep_dispatched(op, c.values_mut(), m, n);
}

/// Dense-tile `L X = B`, as [`gessm_with`] on the widest instance.
#[inline(never)]
pub(crate) fn gessm_tile<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    tile_a: &mut Vec<S>,
    tile_b: &mut Vec<S>,
) {
    gessm_with(sweep_dispatched, diag_lu, b, tile_a, tile_b);
}

/// `L X = B` as `Xᵀ Lᵀ = Bᵀ` on `sweep`: `Bᵀ` (zero where `B` stores
/// nothing) goes into `tile_b`, the sweep solves it by TSTRF's tiles
/// reading `Lᵀ` from `L` (a factor block that is not full expanded into
/// `tile_a` first) — their in-tile triangle is `NR × NR`, where GESSM's
/// own would be `MR × MR` and scalar — and `B`'s stored entries are
/// read back. Each entry sees `x_r −= x_k·L(r, k)`, `k` ascending: the
/// bits of `C_V1`'s `x_r −= L(r, k)·x_k` (the same IEEE product).
#[inline(always)]
fn gessm_with<S: Scalar>(
    sweep: Sweep<S>,
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    tile_a: &mut Vec<S>,
    tile_b: &mut Vec<S>,
) {
    let (m, n) = (b.nrows(), b.ncols());
    let op = Op::GessmT { l: dense_view(diag_lu, tile_a) };
    tile_b.clear();
    tile_b.resize(m * n, S::ZERO);
    if is_full(b) {
        transpose(b.values(), m, n, tile_b);
        sweep(op, tile_b, n, m);
        return transpose(tile_b, n, m, b.values_mut());
    }
    for j in 0..n {
        let (rows, vals) = b.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            tile_b[r * n + j] = v;
        }
    }
    sweep(op, tile_b, n, m);
    for j in 0..n {
        let (rows, vals) = b.col_mut(j);
        for (&r, v) in rows.iter().zip(vals) {
            *v = tile_b[r * n + j];
        }
    }
}

/// `dst ← srcᵀ` for a column-major `rows × cols` `src`, in 16 × 16
/// blocks: a block writes 16 destination lines, where a whole source
/// column would write `rows` lines a power-of-two stride apart, which
/// share cache sets (at 128 rows GESSM read 0.6× its 119-row rate so).
fn transpose<S: Scalar>(src: &[S], rows: usize, cols: usize, dst: &mut [S]) {
    const B: usize = 16;
    for j0 in (0..cols).step_by(B) {
        let j1 = cols.min(j0 + B);
        for i0 in (0..rows).step_by(B) {
            let i1 = rows.min(i0 + B);
            for j in j0..j1 {
                for (i, &v) in (i0..i1).zip(&src[j * rows + i0..j * rows + i1]) {
                    dst[i * cols + j] = v;
                }
            }
        }
    }
}

/// Dense-tile `X U = B`, expanding its blocks as [`gessm_tile`] does.
#[inline(never)]
pub(crate) fn tstrf_tile<S: Scalar>(
    diag_lu: &CscMatrix<S>,
    b: &mut CscMatrix<S>,
    tile_a: &mut Vec<S>,
    tile_b: &mut Vec<S>,
) {
    let (m, n) = (b.nrows(), b.ncols());
    let op = Op::Tstrf { u: dense_view(diag_lu, tile_a) };
    on_dense(b, tile_b, |x| sweep_dispatched(op, x, m, n));
}

/// Dense-tile GETRF of a full diagonal block in place; returns the
/// perturbed-pivot count, as [`crate::getrf::getrf`].
///
/// # Panics
/// Panics if `a` is not full (the routing contract).
#[inline(never)]
pub(crate) fn getrf_tile<S: Scalar>(a: &mut CscMatrix<S>, pivot_floor: f64) -> usize {
    assert!(is_full(a), "dense-tile GETRF routed to a block that is not full");
    let n = a.ncols();
    lu_dispatched(a.values_mut(), n, pivot_floor)
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

    /// GESSM's `L X = B` as naive per-entry loops on a column-major
    /// `m × n` `x`: `x_r -= L(r, k)·x_k`, `k` ascending.
    fn naive_gessm<S: Scalar>(l: &[S], x: &mut [S], m: usize, n: usize) {
        for j in 0..n {
            for kk in 0..m {
                for r in kk + 1..m {
                    x[j * m + r] -= l[kk * m + r] * x[j * m + kk];
                }
            }
        }
    }

    /// The naive per-entry loops the sweep must reproduce bit for bit:
    /// every target entry's subtractions in ascending `k`, TSTRF's
    /// division last.
    fn naive<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
        for j in 0..n {
            match op {
                Op::Ssssm { a, b, k } => {
                    for r in 0..m {
                        for kk in 0..k {
                            x[j * m + r] -= a[kk * m + r] * b[j * k + kk];
                        }
                    }
                }
                Op::GessmT { l } => {
                    for kk in 0..j {
                        for r in 0..m {
                            x[j * m + r] -= x[kk * m + r] * l[kk * n + j];
                        }
                    }
                }
                Op::Tstrf { u } => {
                    for kk in 0..j {
                        for r in 0..m {
                            x[j * m + r] -= x[kk * m + r] * u[j * n + kk];
                        }
                    }
                    for r in 0..m {
                        x[j * m + r] /= u[j * n + j];
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_matches_naive_ascending_k_loops_on_every_remainder() {
        for (m, k, n) in [(1, 1, 1), (3, 2, 5), (7, 9, 6), (13, 4, 11), (16, 16, 16)] {
            let (a, b, c0) = (dense_block(m, k, 1), dense_block(k, n, 2), dense_block(m, n, 3));
            let mut want = c0.values().to_vec();
            naive(Op::Ssssm { a: a.values(), b: b.values(), k }, &mut want, m, n);
            let mut c = c0.clone();
            ssssm_tile(&a, &b, &mut c, &mut KernelScratch::default());
            assert_eq!(c.values(), &want[..], "SSSSM {m}x{k}x{n}");

            let lu = dense_block(m, m, 4);
            let mut want = c0.values().to_vec();
            naive_gessm(lu.values(), &mut want, m, n);
            let mut x = c0.clone();
            gessm_tile(&lu, &mut x, &mut Vec::new(), &mut Vec::new());
            assert_eq!(x.values(), &want[..], "GESSM {m}x{n}");

            let lu = dense_block(n, n, 5);
            let mut want = c0.values().to_vec();
            naive(Op::Tstrf { u: lu.values() }, &mut want, m, n);
            let mut x = c0.clone();
            tstrf_tile(&lu, &mut x, &mut Vec::new(), &mut Vec::new());
            assert_eq!(x.values(), &want[..], "TSTRF {m}x{n}");
        }
    }

    /// `C_V1`'s GETRF as naive dense loops: column `j` takes `k < j`
    /// ascending, skips a zero `U(k, j)`, floors its pivot and divides
    /// last.
    fn naive_lu<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
        let mut perturbed = 0;
        for j in 0..n {
            for k in 0..j {
                let ukj = x[j * n + k];
                if ukj == S::ZERO {
                    continue;
                }
                for r in k + 1..n {
                    x[j * n + r] -= x[k * n + r] * ukj;
                }
            }
            let mut pivot = x[j * n + j];
            perturbed += apply_floor(&mut pivot, pivot_floor);
            x[j * n + j] = pivot;
            for r in j + 1..n {
                x[j * n + r] /= pivot;
            }
        }
        perturbed
    }

    /// One GETRF sweep of the lane over an `n × n` block.
    type LuSweep<S> = fn(&mut [S], usize, f64) -> usize;

    /// [`sweep_avx512`] behind its probe, as a safe function.
    #[cfg(target_arch = "x86_64")]
    fn avx512_sweep<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
        assert!(isa::avx512());
        // SAFETY: the CPU runs `avx512f`, checked above.
        unsafe { sweep_avx512(op, x, m, n) }
    }

    /// [`lu_sweep_avx512`] behind its probe, as a safe function.
    #[cfg(target_arch = "x86_64")]
    fn avx512_lu<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
        assert!(isa::avx512());
        // SAFETY: the CPU runs `avx512f`, checked above.
        unsafe { lu_sweep_avx512(x, n, pivot_floor) }
    }

    /// [`sweep_avx2`] behind its probe, as a safe function.
    #[cfg(target_arch = "x86_64")]
    fn avx2_sweep<S: Scalar>(op: Op<'_, S>, x: &mut [S], m: usize, n: usize) {
        assert!(isa::avx2());
        // SAFETY: the CPU runs `avx2`, checked above.
        unsafe { sweep_avx2(op, x, m, n) }
    }

    /// [`lu_sweep_avx2`] behind its probe, as a safe function.
    #[cfg(target_arch = "x86_64")]
    fn avx2_lu<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
        assert!(isa::avx2());
        // SAFETY: the CPU runs `avx2`, checked above.
        unsafe { lu_sweep_avx2(x, n, pivot_floor) }
    }

    /// Every tile instance this CPU runs, widest (the dispatched one)
    /// first: its name, its sweep and its GETRF sweep.
    fn instances<S: Scalar>() -> Vec<(&'static str, Sweep<S>, LuSweep<S>)> {
        let mut all: Vec<(&'static str, Sweep<S>, LuSweep<S>)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if isa::avx512() {
                all.push(("avx512", avx512_sweep::<S>, avx512_lu::<S>));
            }
            if isa::avx2() {
                all.push(("avx2", avx2_sweep::<S>, avx2_lu::<S>));
            }
        }
        all.push(("portable", sweep::<S, TILE_ROWS_F64>, lu_sweep::<S, TILE_ROWS_F64>));
        all
    }

    /// Heights (and GETRF orders) to check: every one up to one past the
    /// AVX-512 instance's 32-row `f64` tile (the portable and AVX2
    /// instances shift their tail tiles at 7, 13–15 and 25–31), 49–65
    /// (AVX-512 `f64` shifts from 49, and 64 is its `f32` tile), kkt's 69
    /// (too small a remainder to shift), 97 (`f32` shifts, `f64` does
    /// not), 113 (both shift), kkt's 119, and 127–128.
    fn heights() -> impl Iterator<Item = usize> {
        (1..=33).chain(49..=65).chain([69, 97, 113, 119, 127, 128])
    }

    /// Every instance this CPU runs (AVX-512, AVX2, portable) gives the
    /// naive loops' bits for SSSSM, GESSM and TSTRF, in `f64` and `f32`,
    /// at every height of [`heights`] and every width up to 9, and for
    /// GETRF at every order of [`heights`], with and without exact zeros
    /// (`+0.0` and `-0.0`) in the block.
    #[test]
    fn both_tile_instances_match_the_naive_loops_bitwise() {
        fn check_lu<S: Scalar>(name: &str, instance: LuSweep<S>) {
            let bits = |x: &[S]| x.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
            for n in heights() {
                let block: Vec<S> =
                    dense_block(n, n, 6).values().iter().map(|&v| S::from_f64(v)).collect();
                let mut zeros = block.clone();
                for (p, v) in zeros.iter_mut().enumerate() {
                    if p % 5 == 1 {
                        *v = if p % 2 == 0 { S::ZERO } else { -S::ZERO };
                    }
                }
                for x0 in [block, zeros] {
                    for floor in [0.0, 1e-3] {
                        let (mut got, mut want) = (x0.clone(), x0.clone());
                        let perturbed = instance(&mut got, n, floor);
                        let tag = format!("GETRF {name} {} {n}x{n}", S::LABEL);
                        assert_eq!(perturbed, naive_lu(&mut want, n, floor), "{tag}");
                        assert_eq!(bits(&got), bits(&want), "{tag}");
                    }
                }
            }
        }

        fn check<S: Scalar>(name: &str, instance: Sweep<S>) {
            let dense = |m: usize, n: usize, salt: usize| -> Vec<S> {
                dense_block(m, n, salt).values().iter().map(|&v| S::from_f64(v)).collect()
            };
            let bits = |x: &[S]| x.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
            for m in heights() {
                for n in 1..=9 {
                    let c0 = dense(m, n, 3);
                    let lu_n = dense(n, n, 5);
                    let mut ops = vec![Op::Tstrf { u: &lu_n }, Op::GessmT { l: &lu_n }];
                    let operands: Vec<_> =
                        [1, 6, 17].map(|k| (k, dense(m, k, 1), dense(k, n, 2))).into();
                    ops.extend(operands.iter().map(|(k, a, b)| Op::Ssssm { a, b, k: *k }));
                    for op in ops {
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        instance(op, &mut got, m, n);
                        naive(op, &mut want, m, n);
                        assert_eq!(bits(&got), bits(&want), "{name} {} {m}x{n}", S::LABEL);
                    }
                    // GESSM on `m × n` (through transposes: the sweep runs
                    // `n × m`) and on `n × m`, full and with a hole in each
                    // block.
                    for (rows, cols) in [(m, n), (n, m)] {
                        let lu = dense_block(rows, rows, 4).cast::<S>();
                        let b = dense_block(rows, cols, 3).cast::<S>();
                        // The last row is no other row's `x_k`, so its
                        // first entry may go missing from `B`.
                        let hole = |i: usize, j: usize| (i, j) != (rows - 1, 0);
                        let holed = (lu.filter_entries(hole), b.filter_entries(hole));
                        for (l, x0) in [(lu.clone(), b.clone()), holed] {
                            let (mut dense_l, mut want) = (Vec::new(), Vec::new());
                            expand(&l, &mut dense_l);
                            expand(&x0, &mut want);
                            naive_gessm(&dense_l, &mut want, rows, cols);
                            let stored = (0..cols).flat_map(|j| {
                                x0.col(j).0.iter().map(move |&r| j * rows + r).collect::<Vec<_>>()
                            });
                            let want: Vec<S> = stored.map(|p| want[p]).collect();
                            let mut got = x0.clone();
                            gessm_with(instance, &l, &mut got, &mut Vec::new(), &mut Vec::new());
                            let tag = format!("GESSM {name} {} {rows}x{cols}", S::LABEL);
                            assert_eq!(bits(got.values()), bits(&want), "{tag}, nnz {}", l.nnz());
                        }
                    }
                }
            }
        }

        for (name, sweep, lu) in instances::<f64>() {
            check_lu::<f64>(name, lu);
            check::<f64>(name, sweep);
        }
        for (name, sweep, lu) in instances::<f32>() {
            check_lu::<f32>(name, lu);
            check::<f32>(name, sweep);
        }
        // Each instance with the row remainders its full-height tiles
        // cover by one shifted tail tile.
        let tails = |mr: usize| {
            let rest: Vec<usize> = (1..mr).filter(|&r| shifts(r, mr)).collect();
            match rest.as_slice() {
                [one] => one.to_string(),
                [first, .., last] => format!("{first}-{last}"),
                [] => "none".to_string(),
            }
        };
        let names: Vec<_> = instances::<f64>()
            .iter()
            .map(|(name, ..)| {
                let rows = match *name {
                    "avx512" => TILE_ROWS_F64_AVX512,
                    "avx2" => TILE_ROWS_F64_AVX2,
                    _ => TILE_ROWS_F64,
                };
                format!("{name} (tails {} f64 / {} f32 shifted)", tails(rows), tails(2 * rows))
            })
            .collect();
        let checked = match names.as_slice() {
            [init @ .., last] if !init.is_empty() => format!("{} and {last}", init.join(", ")),
            _ => "portable only (this CPU has no AVX2)".to_string(),
        };
        println!("tile instances checked (GETRF GESSM TSTRF SSSSM): {checked}");
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

//! Block triangular solves — the paper's phase 5 (`Ly = b`, `Ux = y`).
//!
//! Operates on the factored [`BlockMatrix`] (packed `L\U` per block) with
//! column-oriented right-looking substitution at block granularity: solve
//! within the diagonal block, then push updates through the panel blocks.
//!
//! The plain (non-transposed) sweeps are instances of one core, `sweep`,
//! over a row-major `n × k` **panel** of right-hand sides: row `i` holds
//! the `k` values of unknown `i` as contiguous lanes, and every stored
//! factor entry `(r, v)` of column `c` performs one `k`-wide
//! `X[r, :] -= v · X[c, :]`. The factor is therefore read once per panel
//! instead of once per right-hand side. [`forward_substitute`] and
//! [`backward_substitute`] are the 1-lane instance (a plain vector *is* a
//! 1-lane panel) with the lane count fixed at compile time, so they
//! compile to the scalar loop; see docs/ALGORITHM.md §5.
//!
//! Every plain sweep enters through one dispatch point, `sweep_panel`:
//! on an x86-64 CPU with AVX2 ([`pangulu_kernels::isa`]) it runs the core
//! compiled for AVX2, elsewhere the portable build of the same code, bit
//! for bit alike ([`crate::Solver::report`] names the one in use). Each
//! column's diagonal entry is read from a table the [`BlockMatrix`]
//! builds at tiling, never searched for.

use crate::block::BlockMatrix;
use pangulu_kernels::isa;
use pangulu_sparse::{CscMatrix, Scalar};

/// Widest panel a single sweep takes. Chosen by the width sweep in
/// docs/PERFORMANCE.md ("Solve phase"): per-RHS time keeps falling up to
/// 32 lanes, and one 32-lane f64 panel at n = 65 536 is 16 MiB of live
/// heap. Callers with more right-hand sides cut them into panels of at
/// most this many.
pub const PANEL_WIDTH: usize = 32;

/// Copies the `k` lanes of panel row `row` out of `x` (the first `k`
/// slots of the result), so the row can be read while others are written.
#[inline(always)]
fn lanes_of<S: Scalar>(x: &[S], row: usize, k: usize) -> [S; PANEL_WIDTH] {
    let mut xc = [S::ZERO; PANEL_WIDTH];
    xc[..k].copy_from_slice(&x[row * k..(row + 1) * k]);
    xc
}

/// The column walk every sweep shares: `X[tgt + r, :] -= v · xc` for each
/// stored `(r, v)` of one factor column, `xc` being the lanes of that
/// column's unknown.
///
/// A lane whose `xc` is exactly zero is left untouched — that is part of
/// the arithmetic, not an optimisation (`-0.0 − v·(−0.0)` would flip a
/// sign bit, `Inf·0` would make a NaN) — so the skip is decided per
/// lane: nothing to do when every lane is zero, the plain vector loop
/// when none is, and the per-lane test otherwise. Each lane thus sees
/// exactly the operations the single-RHS sweep performs on it, whatever
/// its neighbours hold.
#[inline(always)]
fn push_column<S: Scalar>(x: &mut [S], tgt: usize, rows: &[usize], vals: &[S], xc: &[S]) {
    let k = xc.len();
    let zeros = xc.iter().filter(|&&v| v == S::ZERO).count();
    if zeros == k {
        return;
    }
    if zeros == 0 {
        for (&r, &v) in rows.iter().zip(vals) {
            let at = (tgt + r) * k;
            for (xr, &c) in x[at..at + k].iter_mut().zip(xc) {
                *xr -= v * c;
            }
        }
    } else {
        for (&r, &v) in rows.iter().zip(vals) {
            let at = (tgt + r) * k;
            for (xr, &c) in x[at..at + k].iter_mut().zip(xc) {
                if c != S::ZERO {
                    *xr -= v * c;
                }
            }
        }
    }
}

/// In-block solve on the `ncols × k` panel segment `x` of one diagonal
/// block: unit-lower `L(k,k) y = x` (ascending columns, entries below
/// the diagonal) or, with `UPPER`, `U(k,k) x = y` (descending columns,
/// divide by the stored diagonal, entries above it). `dpos` is the
/// block's diagonal-position table ([`BlockMatrix::diag_positions`]).
/// A column with nothing on its side of the diagonal is skipped before
/// its lanes are copied. Inlined into its callers, so a lane count they
/// know at compile time is known here.
#[inline(always)]
fn solve_diag<S: Scalar, const UPPER: bool>(
    d: &CscMatrix<S>,
    dpos: &[usize],
    x: &mut [S],
    k: usize,
) {
    let n = d.ncols();
    for step in 0..n {
        let c = if UPPER { n - 1 - step } else { step };
        let (rows, vals) = d.col(c);
        let off_diag = if UPPER {
            let pivot = vals[dpos[c]];
            for xl in &mut x[c * k..(c + 1) * k] {
                *xl /= pivot;
            }
            0..dpos[c]
        } else {
            dpos[c] + 1..rows.len()
        };
        if off_diag.is_empty() {
            continue;
        }
        let xc = lanes_of(x, c, k);
        push_column(x, 0, &rows[off_diag.clone()], &vals[off_diag], &xc[..k]);
    }
}

/// One triangular sweep over the row-major `n × k` panel `x`, in place:
/// `L Y = X` (block columns ascending, blocks below the diagonal) or,
/// with `UPPER`, `U X = Y` (descending, blocks above). A non-zero
/// `FIXED` is the lane count, known at compile time so that every lane
/// loop has a constant trip count; `FIXED == 0` takes it from `k`.
/// Always inlined, so each caller of [`sweep_widths`] compiles its own
/// copy for the instruction set it enables.
#[inline(always)]
fn sweep<S: Scalar, const FIXED: usize, const UPPER: bool>(
    bm: &BlockMatrix<S>,
    x: &mut [S],
    k: usize,
) {
    let k = if FIXED == 0 { k } else { FIXED };
    assert!((1..=PANEL_WIDTH).contains(&k), "panel width {k} outside 1..={PANEL_WIDTH}");
    assert_eq!(x.len(), bm.n() * k, "rhs length must match matrix order");
    let nb = bm.nb();
    let nblk = bm.nblk();
    for step in 0..nblk {
        let bk = if UPPER { nblk - 1 - step } else { step };
        let diag = bm.diag_block(bk);
        let base = bk * nb;
        let seg = &mut x[base * k..(base + diag.ncols()) * k];
        solve_diag::<S, UPPER>(diag, bm.diag_positions(bk), seg, k);
        // Push through the panel blocks of block column bk:
        // x_i -= L(i,bk)·x_bk below the diagonal, U(i,bk)·x_bk above it.
        for (bi, id) in bm.col_blocks(bk) {
            if bi == bk || (bi < bk) != UPPER {
                continue;
            }
            let blk = bm.block(id);
            for c in 0..blk.ncols() {
                let (rows, vals) = blk.col(c);
                if rows.is_empty() {
                    continue;
                }
                let xc = lanes_of(x, base + c, k);
                push_column(x, bi * nb, rows, vals, &xc[..k]);
            }
        }
    }
}

/// Picks the compiled-in lane count for a `k`-lane panel: the two widths
/// every steady caller uses — 1 (single right-hand sides) and
/// [`PANEL_WIDTH`] (every full panel of a batch) — have their lane count
/// compiled in; the ragged last panel of a batch runs the run-time-width
/// instance. Called directly, this is the portable instance.
#[inline(always)]
fn sweep_widths<S: Scalar, const UPPER: bool>(bm: &BlockMatrix<S>, x: &mut [S], k: usize) {
    match k {
        1 => sweep::<S, 1, UPPER>(bm, x, k),
        PANEL_WIDTH => sweep::<S, PANEL_WIDTH, UPPER>(bm, x, k),
        _ => sweep::<S, 0, UPPER>(bm, x, k),
    }
}

/// [`sweep_widths`] compiled for AVX2 (4 f64 / 8 f32 lanes per vector
/// instead of SSE2's 2 / 4). Only `avx2` is enabled, not `fma`: every
/// lane still performs a separate multiply and subtract, so the bits are
/// the portable instance's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2<S: Scalar, const UPPER: bool>(bm: &BlockMatrix<S>, x: &mut [S], k: usize) {
    sweep_widths::<S, UPPER>(bm, x, k);
}

/// The one dispatch point of the plain sweeps: every entry below runs
/// through here, and where [`isa::avx2`] holds it takes the AVX2
/// instance, else the portable one — the pattern the dense-tile lane's
/// dispatch follows too.
fn sweep_panel<S: Scalar, const UPPER: bool>(bm: &BlockMatrix<S>, x: &mut [S], k: usize) {
    #[cfg(target_arch = "x86_64")]
    if isa::avx2() {
        // SAFETY: `sweep_avx2` enables only `avx2`, which the CPU was
        // just detected to support.
        return unsafe { sweep_avx2::<S, UPPER>(bm, x, k) };
    }
    sweep_widths::<S, UPPER>(bm, x, k);
}

/// Solves `L y = b` in place, where `L` is the unit-lower factor stored in
/// the blocked packed form.
pub fn forward_substitute<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S]) {
    sweep_panel::<S, false>(bm, x, 1);
}

/// Solves `U x = y` in place, where `U` is the upper factor (diagonal
/// included) stored in the blocked packed form.
pub fn backward_substitute<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S]) {
    sweep_panel::<S, true>(bm, x, 1);
}

/// Solves `L Y = B` in place for `k` right-hand sides at once. `x` is
/// the row-major `n × k` panel (`x[i * k + j]` is entry `i` of
/// right-hand side `j`), `1 ≤ k ≤` [`PANEL_WIDTH`]. Column `j` of the
/// result is bitwise what [`forward_substitute`] gives for right-hand
/// side `j` alone; the factor is read once for all `k`.
pub fn forward_substitute_panel<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S], k: usize) {
    sweep_panel::<S, false>(bm, x, k);
}

/// Solves `U X = Y` in place for `k` right-hand sides at once; layout
/// and guarantees as [`forward_substitute_panel`], against
/// [`backward_substitute`].
pub fn backward_substitute_panel<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S], k: usize) {
    sweep_panel::<S, true>(bm, x, k);
}

/// Solves `Uᵀ y = b` in place — the first half of a transpose solve
/// (`Aᵀx = b`). `Uᵀ` is lower triangular with the diagonal of `U`; the
/// CSC layout makes its rows available as `U`'s columns, so the inner
/// loops are dot products over stored columns.
pub fn forward_substitute_transpose<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S]) {
    assert_eq!(x.len(), bm.n(), "rhs length must match matrix order");
    let nb = bm.nb();
    for k in 0..bm.nblk() {
        let base = k * nb;
        // Pull in contributions from block row k left of the diagonal:
        // x_k -= U(j,k)ᵀ... in CSC terms, for each stored block (j, k)
        // with j < k, x_k[c] -= Σ_r blk(r,c)·x_j[r].
        for (bj, id) in bm.col_blocks(k) {
            if bj >= k {
                continue;
            }
            let blk = bm.block(id);
            let src = bj * nb;
            for c in 0..blk.ncols() {
                let (rows, vals) = blk.col(c);
                let mut acc = S::ZERO;
                for (&r, &v) in rows.iter().zip(vals) {
                    acc += v * x[src + r];
                }
                x[base + c] -= acc;
            }
        }
        // Solve Uᵀ(k,k) y_k = x_k: ascending columns, dot over the
        // column's strict-upper entries (which are Uᵀ's row entries).
        let d = bm.diag_block(k);
        for (c, &dpos) in bm.diag_positions(k).iter().enumerate() {
            let (rows, vals) = d.col(c);
            let mut acc = x[base + c];
            for (&r, &v) in rows[..dpos].iter().zip(&vals[..dpos]) {
                acc -= v * x[base + r];
            }
            x[base + c] = acc / vals[dpos];
        }
    }
}

/// Solves `Lᵀ x = y` in place — the second half of a transpose solve.
/// `Lᵀ` is unit upper triangular; rows of `Lᵀ` are `L`'s columns.
pub fn backward_substitute_transpose<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S]) {
    assert_eq!(x.len(), bm.n(), "rhs length must match matrix order");
    let nb = bm.nb();
    for k in (0..bm.nblk()).rev() {
        let base = k * nb;
        // Contributions from blocks below the diagonal in block column k:
        // x_k[c] -= Σ_r L(i,k)(r,c)·x_i[r] for i > k.
        for (bi, id) in bm.col_blocks(k) {
            if bi <= k {
                continue;
            }
            let blk = bm.block(id);
            let src = bi * nb;
            for c in 0..blk.ncols() {
                let (rows, vals) = blk.col(c);
                let mut acc = S::ZERO;
                for (&r, &v) in rows.iter().zip(vals) {
                    acc += v * x[src + r];
                }
                x[base + c] -= acc;
            }
        }
        // Solve Lᵀ(k,k) x_k = y_k: descending columns, dot over the
        // column's strict-lower entries; unit diagonal.
        let d = bm.diag_block(k);
        for (c, &dpos) in bm.diag_positions(k).iter().enumerate().rev() {
            let (rows, vals) = d.col(c);
            let start = dpos + 1;
            let mut acc = x[base + c];
            for (&r, &v) in rows[start..].iter().zip(&vals[start..]) {
                acc -= v * x[base + r];
            }
            x[base + c] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
    use crate::task::TaskGraph;
    use pangulu_kernels::select::{KernelSelector, Thresholds};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::{ensure_diagonal, relative_residual};
    use pangulu_sparse::CscMatrix;
    use pangulu_symbolic::symbolic_fill;

    fn factored(a: &CscMatrix, nb: usize) -> BlockMatrix {
        let f = symbolic_fill(a).unwrap().filled_matrix(a).unwrap();
        let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        factor_sequential(&mut bm, &tg, &sel, 0.0);
        bm
    }

    /// The scalar substitution this module shipped before the panel core,
    /// kept as the oracle that pins every lane's operation order: per
    /// block column, in-block solve, then `x[r] -= v·xc` down (or up) the
    /// off-diagonal blocks, skipping columns whose unknown is exactly zero.
    fn reference_sweep<S: Scalar>(bm: &BlockMatrix<S>, x: &mut [S], upper: bool) {
        let nb = bm.nb();
        let push = |x: &mut [S], tgt: usize, xc: S, rows: &[usize], vals: &[S]| {
            if xc != S::ZERO {
                for (&r, &v) in rows.iter().zip(vals) {
                    x[tgt + r] -= v * xc;
                }
            }
        };
        let order: Vec<usize> =
            if upper { (0..bm.nblk()).rev().collect() } else { (0..bm.nblk()).collect() };
        for k in order {
            let d = bm.block(bm.block_id(k, k).unwrap());
            let base = k * nb;
            let cols: Vec<usize> =
                if upper { (0..d.ncols()).rev().collect() } else { (0..d.ncols()).collect() };
            for c in cols {
                let (rows, vals) = d.col(c);
                if upper {
                    let dpos = rows.binary_search(&c).unwrap();
                    x[base + c] /= vals[dpos];
                    push(x, base, x[base + c], &rows[..dpos], &vals[..dpos]);
                } else {
                    let start = rows.partition_point(|&r| r <= c);
                    push(x, base, x[base + c], &rows[start..], &vals[start..]);
                }
            }
            for (bi, id) in bm.col_blocks(k) {
                if bi == k || (bi < k) != upper {
                    continue;
                }
                let blk = bm.block(id);
                for c in 0..blk.ncols() {
                    let (rows, vals) = blk.col(c);
                    push(x, bi * nb, x[base + c], rows, vals);
                }
            }
        }
    }

    /// One sweep of a `k`-lane panel.
    type Sweep<S> = fn(&BlockMatrix<S>, &mut [S], usize);

    /// Both dispatch outcomes — the instance `sweep_panel` picks on this
    /// CPU (AVX2 where present) and the portable one, `sweep_widths`
    /// called from code compiled without `target_feature` — at every
    /// kind of width (compiled-in 1 and `PANEL_WIDTH`, run-time widths
    /// between) give each lane the bits of the scalar oracle, in f64 and
    /// f32, zero-skip branches included.
    #[test]
    fn both_sweep_instances_match_the_scalar_oracle_bitwise() {
        fn check<S: Scalar>(bm: &BlockMatrix<S>) {
            let dispatched: [Sweep<S>; 2] = [sweep_panel::<S, false>, sweep_panel::<S, true>];
            let portable: [Sweep<S>; 2] = [sweep_widths::<S, false>, sweep_widths::<S, true>];
            for [forward, backward] in [dispatched, portable] {
                check_instance(bm, forward, backward);
            }
        }
        fn check_instance<S: Scalar>(bm: &BlockMatrix<S>, forward: Sweep<S>, backward: Sweep<S>) {
            let n = bm.n();
            for k in [1, 2, 7, PANEL_WIDTH] {
                // Lane j: noise, but zero above row j (so early columns see
                // all-zero, mixed and all-non-zero lane sets), lane 3 all zero.
                let lane = |j: usize| -> Vec<S> {
                    gen::test_rhs(n, j as u64)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| S::from_f64(if i < 3 * j || j == 3 { 0.0 } else { v }))
                        .collect()
                };
                let mut panel = vec![S::ZERO; n * k];
                for j in 0..k {
                    for (i, v) in lane(j).into_iter().enumerate() {
                        panel[i * k + j] = v;
                    }
                }
                forward(bm, &mut panel, k);
                let after_forward = panel.clone();
                backward(bm, &mut panel, k);
                for j in 0..k {
                    let mut want = lane(j);
                    reference_sweep(bm, &mut want, false);
                    let bits = |v: S| v.to_f64().to_bits();
                    assert!((0..n).all(|i| bits(after_forward[i * k + j]) == bits(want[i])));
                    reference_sweep(bm, &mut want, true);
                    assert!((0..n).all(|i| bits(panel[i * k + j]) == bits(want[i])), "k={k} j={j}");
                }
            }
        }
        for (a, nb) in [(gen::laplacian_2d(9, 8), 10), (gen::circuit(90, 4), 7)] {
            let bm = factored(&a, nb);
            check(&bm);
            check(&bm.cast::<f32>());
        }
        if isa::avx2() {
            println!("sweep instances checked: avx2 and portable");
        } else {
            println!("sweep instances checked: portable only (this CPU has no AVX2)");
        }
    }

    #[test]
    fn in_block_solves_match_the_scalar_oracle_bitwise() {
        let a = gen::laplacian_2d(6, 6);
        // One block: the in-block solves are the whole sweeps.
        let bm = factored(&a, a.nrows());
        let d = bm.block(bm.block_id(0, 0).unwrap());
        let dpos = bm.diag_positions(0);
        let (mut got, mut want) = (gen::test_rhs(a.nrows(), 5), gen::test_rhs(a.nrows(), 5));
        solve_diag::<f64, false>(d, dpos, &mut got, 1);
        reference_sweep(&bm, &mut want, false);
        assert_eq!(got, want);
        solve_diag::<f64, true>(d, dpos, &mut got, 1);
        reference_sweep(&bm, &mut want, true);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "panel width")]
    fn panel_wider_than_the_constant_is_refused() {
        let bm = factored(&gen::laplacian_2d(4, 4), 5);
        let k = PANEL_WIDTH + 1;
        forward_substitute_panel(&bm, &mut vec![0.0; bm.n() * k], k);
    }

    #[test]
    fn solve_recovers_known_solution() {
        for seed in 0..3 {
            let a = ensure_diagonal(&gen::random_sparse(50, 0.12, seed)).unwrap();
            let bm = factored(&a, 9);
            let x_true = gen::test_rhs(50, seed + 100);
            let b = pangulu_sparse::ops::spmv(&a, &x_true).unwrap();
            let mut x = b.clone();
            forward_substitute(&bm, &mut x);
            backward_substitute(&bm, &mut x);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8, "seed {seed}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn residual_is_small_on_laplacian() {
        let a = gen::laplacian_2d(12, 12);
        let bm = factored(&a, 16);
        let b = gen::test_rhs(a.nrows(), 7);
        let mut x = b.clone();
        forward_substitute(&bm, &mut x);
        backward_substitute(&bm, &mut x);
        let r = relative_residual(&a, &x, &b).unwrap();
        assert!(r < 1e-12, "residual {r}");
    }

    #[test]
    fn transpose_solve_recovers_known_solution() {
        for seed in 0..3 {
            let a = ensure_diagonal(&gen::random_sparse(45, 0.12, seed)).unwrap();
            let bm = factored(&a, 8);
            let x_true = gen::test_rhs(45, seed + 50);
            // b = Aᵀ x ⇔ b = (xᵀ A)ᵀ, i.e. spmv with the transpose.
            let b = pangulu_sparse::ops::spmv(&a.transpose(), &x_true).unwrap();
            // Factored M = L U of A (natural order in `factored`), so
            // Aᵀ = Uᵀ Lᵀ: forward with Uᵀ, backward with Lᵀ.
            let mut x = b.clone();
            forward_substitute_transpose(&bm, &mut x);
            backward_substitute_transpose(&bm, &mut x);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8, "seed {seed}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = gen::laplacian_2d(6, 6);
        let bm = factored(&a, 9);
        let mut x = vec![0.0; a.nrows()];
        forward_substitute(&bm, &mut x);
        backward_substitute(&bm, &mut x);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}

//! Property tests of the dense-tile lane (`D_V1`): on full targets it
//! must be **bitwise identical** to the sparse variants `C_V1` and `C_V2`
//! — every tile remainder in both dimensions (shifted tail tiles
//! included), full and expanded (50–99 % filled) operands, panel solves
//! on closed patterns with holes in the factor block, the panel block or
//! both (25–90 % fill), operand values that are exactly `0.0` (the sparse
//! kernels skip those, the tile multiplies through), `f64` and `f32` —
//! its GETRF on full diagonal blocks to `C_V1` and to naive dense loops,
//! perturbed-pivot count included, on every input (pivot floor on and
//! off, zero and tiny pivots, `-0.0` entries, NaN), and, next to it,
//! `C_V1` updating full target columns **in place** against `C_V1`
//! scattering the same column. The lane performs the same `c -= a·b`
//! subtractions in the same ascending-`k` order, so nothing here is a
//! tolerance.
//!
//! CI runs this file in a debug and a release build: the claim must hold
//! with and without vectorisation.

use proptest::prelude::*;

use pangulu_kernels::{getrf, ssssm, trsm, GetrfVariant, KernelScratch, SsssmVariant, TrsmVariant};
use pangulu_sparse::{CooMatrix, CscMatrix, Scalar};

/// Named block dimensions: tiny ones for the remainders, 15–17 (one
/// below, at and one past the AVX2 instance's 16-row `f32` tile and two
/// of its 8-row `f64` tiles), 69 (kkt's last block row) and 119 (its
/// block size).
const DIMS: [usize; 11] = [1, 2, 3, 5, 7, 8, 15, 16, 17, 69, 119];

/// Heights that straddle the AVX-512 instance's tiles: one below, at and
/// one past its 32-row `f64` and 64-row `f32` tile, remainders it covers
/// with one shifted tail tile (49–63 and 113 in `f64`, 97, 113 and 119 in
/// `f32`, 127 in both) or with the cascade (69, and 97 in `f64`), and
/// 128.
const TALL: [usize; 15] = [31, 32, 33, 49, 50, 56, 63, 64, 65, 69, 97, 113, 119, 127, 128];

struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value in ±[0.25, 2): never zero, never tiny.
    fn value(&mut self) -> f64 {
        let mag = 0.25 + 1.75 * self.unit();
        if self.unit() < 0.5 {
            -mag
        } else {
            mag
        }
    }
}

/// An `m × n` block keeping each entry with probability `fill` (`>= 1.0`
/// keeps all: a full block); `zero_share` of the kept values are exactly
/// `0.0`; the diagonal gets `+ diag_boost`.
fn block(
    m: usize,
    n: usize,
    fill: f64,
    zero_share: f64,
    diag_boost: f64,
    rng: &mut Lcg,
) -> CscMatrix {
    let mut coo = CooMatrix::new(m, n);
    for j in 0..n {
        for i in 0..m {
            if fill >= 1.0 || rng.unit() < fill {
                let v = if rng.unit() < zero_share { 0.0 } else { rng.value() };
                coo.push(i, j, if i == j { v + diag_boost } else { v }).unwrap();
            }
        }
    }
    coo.to_csc()
}

/// Raw bits of every stored value (`f32` widens exactly), so `-0.0`
/// differs from `+0.0` and a NaN equals itself.
fn bits<S: Scalar>(blk: &CscMatrix<S>) -> Vec<u64> {
    blk.values().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn assert_ssssm_lane<S: Scalar>(a: &CscMatrix<S>, b: &CscMatrix<S>, c0: &CscMatrix<S>, tag: &str) {
    let mut scratch = KernelScratch::<S>::default();
    let mut got = c0.clone();
    ssssm::ssssm(a, b, &mut got, SsssmVariant::DV1, &mut scratch);
    for v in [SsssmVariant::CV1, SsssmVariant::CV2] {
        let mut want = c0.clone();
        ssssm::ssssm(a, b, &mut want, v, &mut scratch);
        assert_eq!(bits(&want), bits(&got), "SSSSM {tag} {}: tile != {v:?}", S::LABEL);
    }
}

fn assert_panel_lanes<S: Scalar>(
    lu_rows: &CscMatrix<S>,
    upper: &CscMatrix<S>,
    lu_cols: &CscMatrix<S>,
    lower: &CscMatrix<S>,
    tag: &str,
) {
    let mut scratch = KernelScratch::<S>::default();
    let mut got = upper.clone();
    trsm::gessm(lu_rows, &mut got, TrsmVariant::DV1, &mut scratch);
    for v in [TrsmVariant::CV1, TrsmVariant::CV2] {
        let mut want = upper.clone();
        trsm::gessm(lu_rows, &mut want, v, &mut scratch);
        assert_eq!(bits(&want), bits(&got), "GESSM {tag} {}: tile != {v:?}", S::LABEL);
    }
    let mut got = lower.clone();
    trsm::tstrf(lu_cols, &mut got, TrsmVariant::DV1, &mut scratch);
    for v in [TrsmVariant::CV1, TrsmVariant::CV2] {
        let mut want = lower.clone();
        trsm::tstrf(lu_cols, &mut want, v, &mut scratch);
        assert_eq!(bits(&want), bits(&got), "TSTRF {tag} {}: tile != {v:?}", S::LABEL);
    }
}

/// A factored full diagonal block of order `nb`, with `zero_share` of its
/// strict upper part forced to exactly `0.0` afterwards (the panel
/// kernels only read it, so it need not stay a true factor).
fn factor(nb: usize, zero_share: f64, rng: &mut Lcg) -> CscMatrix {
    let mut lu = block(nb, nb, 1.0, 0.0, 4.0 * nb as f64, rng);
    getrf::getrf(&mut lu, GetrfVariant::CV1, &mut KernelScratch::default(), 1e-12);
    for j in 0..nb {
        for i in 0..j {
            if rng.unit() < zero_share {
                lu.values_mut()[j * nb + i] = 0.0;
            }
        }
    }
    lu
}

/// SSSSM on an `m × k × n` update and both panel solves on an `m × n`
/// panel, in both widths.
fn check_shape(m: usize, k: usize, n: usize, fills: (f64, f64), zero_share: f64, seed: u64) {
    let rng = &mut Lcg(seed);
    let tag = format!("{m}x{k}x{n} fill {fills:?} zeros {zero_share} seed {seed}");
    let a = block(m, k, fills.0, 0.0, 0.0, rng);
    let b = block(k, n, fills.1, zero_share, 0.0, rng);
    let c = block(m, n, 1.0, 0.0, 0.0, rng);
    assert_ssssm_lane(&a, &b, &c, &tag);
    assert_ssssm_lane(&a.cast::<f32>(), &b.cast::<f32>(), &c.cast::<f32>(), &tag);

    // GESSM: factor of order m over an m x n panel; TSTRF: an m x n
    // panel over a factor of order n. Zeros in the panel exercise GESSM's
    // `x_k == 0` skip, zeros in U exercise TSTRF's `u_kj == 0` skip.
    let (lu_rows, lu_cols) = (factor(m, zero_share, rng), factor(n, zero_share, rng));
    let upper = block(m, n, 1.0, zero_share, 0.0, rng);
    let lower = block(m, n, 1.0, 0.0, 0.0, rng);
    assert_panel_lanes(&lu_rows, &upper, &lu_cols, &lower, &tag);
    assert_panel_lanes(
        &lu_rows.cast::<f32>(),
        &upper.cast::<f32>(),
        &lu_cols.cast::<f32>(),
        &lower.cast::<f32>(),
        &tag,
    );
}

/// Every row remainder of the instances' tiles (every height up to one
/// past the AVX2 instance's 16-row `f32` tile and its shifted `f32` tails
/// at 25–31, and [`TALL`]) and of the 4-column tile, with full and with
/// expanded operands.
#[test]
fn every_tile_remainder_matches_the_sparse_variants() {
    for m in (1..=17).chain(25..=30).chain(TALL) {
        for n in 1..=9 {
            for (k, fills) in [(1, (1.0, 1.0)), (5, (1.0, 0.8)), (8, (0.7, 1.0)), (11, (0.6, 0.6))]
            {
                check_shape(m, k, n, fills, 0.0, (m * 131 + n * 17 + k) as u64);
            }
        }
    }
}

/// The named block sizes, square: full operands, expanded operands, and
/// operands carrying exact zeros.
#[test]
fn named_square_shapes_match_the_sparse_variants() {
    for (i, &s) in DIMS.iter().enumerate() {
        check_shape(s, s, s, (1.0, 1.0), 0.0, 100 + i as u64);
        check_shape(s, s, s, (0.75, 0.9), 0.0, 200 + i as u64);
        check_shape(s, s, s, (1.0, 0.6), 0.2, 300 + i as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rectangular mixes of the named sizes (kkt's last block row is 69
    /// wide against 119 everywhere else) at random fills in 50–99 % and
    /// random shares of exact zeros.
    #[test]
    fn named_rectangular_shapes_match_the_sparse_variants(
        (mi, ki, ni) in (0..DIMS.len(), 0..DIMS.len(), 0..DIMS.len()),
        (fa, fb, zeros) in (0.5f64..0.99, 0.5f64..0.99, 0.0f64..0.3),
        seed in 0u64..1_000_000,
    ) {
        check_shape(DIMS[mi], DIMS[ki], DIMS[ni], (fa, fb), zeros, seed);
    }
}

/// `blk` with one more (empty) row: the same stored entries, but no
/// column is full any more, so `C_V1` takes its scatter / gather path.
fn with_spare_row<S: Scalar>(blk: &CscMatrix<S>) -> CscMatrix<S> {
    CscMatrix::from_parts(
        blk.nrows() + 1,
        blk.ncols(),
        blk.col_ptr().to_vec(),
        blk.row_idx().to_vec(),
        blk.values().to_vec(),
    )
    .unwrap()
}

/// `C_V1` on `(a, b, c)` — in place on every full column of `c` — against
/// `C_V1` on the same entries under a spare row (scatter on every
/// column), and against `C_V2`'s search addressing.
fn assert_in_place_equals_scatter<S: Scalar>(
    a: &CscMatrix<S>,
    b: &CscMatrix<S>,
    c0: &CscMatrix<S>,
    tag: &str,
) {
    let mut scratch = KernelScratch::<S>::default();
    let mut in_place = c0.clone();
    ssssm::ssssm(a, b, &mut in_place, SsssmVariant::CV1, &mut scratch);
    let mut scattered = with_spare_row(c0);
    ssssm::ssssm(&with_spare_row(a), b, &mut scattered, SsssmVariant::CV1, &mut scratch);
    assert_eq!(bits(&scattered), bits(&in_place), "{tag} {}: in place != scatter", S::LABEL);
    let mut searched = c0.clone();
    ssssm::ssssm(a, b, &mut searched, SsssmVariant::CV2, &mut scratch);
    assert_eq!(bits(&searched), bits(&in_place), "{tag} {}: in place != C_V2", S::LABEL);
}

/// In-place `C_V1` on full targets (sparse, half-full and full `A`
/// columns — the last take the contiguous slice loop) and on targets
/// where only some columns are full, with exact zeros in `B`.
#[test]
fn in_place_cv1_matches_scatter_cv1_on_full_and_partly_full_columns() {
    for (i, &(m, k, n)) in
        [(1, 1, 1), (5, 3, 7), (8, 8, 8), (69, 119, 33), (119, 40, 69)].iter().enumerate()
    {
        for (f, &fill_a) in [0.1, 0.5, 1.0].iter().enumerate() {
            let rng = &mut Lcg(7_000 + 10 * i as u64 + f as u64);
            let tag = format!("{m}x{k}x{n} fill_a {fill_a}");
            let a = block(m, k, fill_a, 0.0, 0.0, rng);
            let b = block(k, n, 0.4, 0.2, 0.0, rng);
            let c = block(m, n, 1.0, 0.0, 0.0, rng);
            assert_in_place_equals_scatter(&a, &b, &c, &tag);
            assert_in_place_equals_scatter(&a.cast::<f32>(), &b.cast(), &c.cast(), &tag);

            // Row `hole` is absent from `A`, so columns of the target may
            // miss it: every third column does and is scattered, the
            // others stay full and are updated in place, in one call.
            let hole = m / 2;
            let a = a.filter_entries(|r, _| r != hole);
            let c = c.filter_entries(|r, j| r != hole || j % 3 != 0);
            if m > 1 {
                assert_in_place_equals_scatter(&a, &b, &c, &format!("{tag} partly full"));
                assert_in_place_equals_scatter(&a.cast::<f32>(), &b.cast(), &c.cast(), &tag);
            }
        }
    }
}

/// The second premise of the bitwise argument, from the other side: with
/// a non-finite operand the lane's `0·x` products are NaN, so it may
/// poison *more* entries than the sparse variants — but an entry they
/// leave non-finite is never silently finite through the tile.
#[test]
fn non_finite_operands_stay_non_finite_through_the_tile() {
    let (m, k, n) = (13, 9, 7);
    for (p, poison) in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].into_iter().enumerate() {
        let rng = &mut Lcg(900 + p as u64);
        let mut scratch = KernelScratch::default();
        for fill in [1.0, 0.7] {
            let mut a = block(m, k, fill, 0.0, 0.0, rng);
            let b = block(k, n, fill, 0.1, 0.0, rng);
            let c0 = block(m, n, 1.0, 0.0, 0.0, rng);
            let mid = a.nnz() / 2;
            a.values_mut()[mid] = poison;
            let (mut want, mut got) = (c0.clone(), c0.clone());
            ssssm::ssssm(&a, &b, &mut want, SsssmVariant::CV1, &mut scratch);
            ssssm::ssssm(&a, &b, &mut got, SsssmVariant::DV1, &mut scratch);
            non_finite_kept(&want, &got, &format!("SSSSM {poison} fill {fill}"));
        }

        let lu = factor(m, 0.0, rng);
        let mut upper = block(m, n, 1.0, 0.0, 0.0, rng);
        upper.values_mut()[m + 2] = poison;
        let (mut want, mut got) = (upper.clone(), upper.clone());
        trsm::gessm(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        trsm::gessm(&lu, &mut got, TrsmVariant::DV1, &mut scratch);
        non_finite_kept(&want, &got, &format!("GESSM {poison}"));

        let lu = factor(n, 0.0, rng);
        let mut lower = block(m, n, 1.0, 0.0, 0.0, rng);
        lower.values_mut()[m + 2] = poison;
        let (mut want, mut got) = (lower.clone(), lower.clone());
        trsm::tstrf(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        trsm::tstrf(&lu, &mut got, TrsmVariant::DV1, &mut scratch);
        non_finite_kept(&want, &got, &format!("TSTRF {poison}"));
    }
}

/// `pattern` (column-major `m × n`, `true` = stored) closed as a
/// factorisation's panels are: under GESSM (`lower`) an entry `(k, j)`
/// stores every `(r, j)` with `L(r, k)` stored, `r > k`; under TSTRF
/// (`upper`) an entry `(i, k)` stores every `(i, j)` with `U(k, j)`
/// stored, `j > k`. One ascending pass suffices: fill only moves down
/// (GESSM) or right (TSTRF).
fn close(
    pattern: &mut [bool],
    m: usize,
    n: usize,
    lower: Option<&CscMatrix>,
    upper: Option<&CscMatrix>,
) {
    if let Some(l) = lower {
        for j in 0..n {
            for k in 0..m {
                if pattern[j * m + k] {
                    for &r in l.col(k).0.iter().filter(|&&r| r > k) {
                        pattern[j * m + r] = true;
                    }
                }
            }
        }
    }
    if let Some(u) = upper {
        for j in 0..n {
            for (&k, _) in u.col(j).0.iter().zip(u.col(j).1).filter(|(&k, _)| k < j) {
                for i in 0..m {
                    if pattern[k * m + i] {
                        pattern[j * m + i] = true;
                    }
                }
            }
        }
    }
}

/// `lu` keeping its diagonal and each off-diagonal entry with
/// probability `fill`.
fn thin(lu: &CscMatrix, fill: f64, rng: &mut Lcg) -> CscMatrix {
    let keep: Vec<bool> = (0..lu.nrows() * lu.ncols()).map(|_| rng.unit() < fill).collect();
    let m = lu.nrows();
    lu.filter_entries(|i, j| i == j || keep[j * m + i])
}

/// An `m × n` panel over `pattern`, `zero_share` of its values exactly
/// `0.0`.
fn panel_over(pattern: &[bool], m: usize, n: usize, zero_share: f64, rng: &mut Lcg) -> CscMatrix {
    let mut coo = CooMatrix::new(m, n);
    for j in 0..n {
        for i in (0..m).filter(|&i| pattern[j * m + i]) {
            coo.push(i, j, if rng.unit() < zero_share { 0.0 } else { rng.value() }).unwrap();
        }
    }
    coo.to_csc()
}

/// Filled panel blocks that are not full take the lane expanded into the
/// scratch tiles (a factor block with holes, a panel block with holes,
/// or both), and only the panel's stored entries come back: at 25–90 %
/// fill of the factor and of the panel before closure, with exact zeros
/// in the panel and in `U`, the bits are `C_V1`'s and `C_V2`'s in `f64`
/// and `f32`, at heights where the instances shift their tail tiles and
/// where they do not; with a non-finite panel entry, every entry the
/// sparse variants leave non-finite stays non-finite.
#[test]
fn expanded_panel_solves_match_the_sparse_variants() {
    let shapes = [(7, 5), (13, 9), (29, 30), (56, 23), (69, 119), (119, 69), (119, 119)];
    for (s, &(m, n)) in shapes.iter().enumerate() {
        for (f, fill) in [0.25, 0.5, 0.75, 0.9].into_iter().enumerate() {
            let rng = &mut Lcg(11_000 + 10 * s as u64 + f as u64);
            let tag = format!("{m}x{n} fill {fill}");
            let zeros = 0.15;
            let (lu_rows, lu_cols) = (factor(m, zeros, rng), factor(n, zeros, rng));
            // Full factors over holed panels, holed factors over full
            // and over holed panels.
            for (factor_fill, panel_fill) in [(1.0, fill), (fill, 1.0), (fill, fill)] {
                let lu_rows =
                    if factor_fill < 1.0 { thin(&lu_rows, fill, rng) } else { lu_rows.clone() };
                let lu_cols =
                    if factor_fill < 1.0 { thin(&lu_cols, fill, rng) } else { lu_cols.clone() };
                let seed = |rng: &mut Lcg| -> Vec<bool> {
                    (0..m * n).map(|_| panel_fill >= 1.0 || rng.unit() < panel_fill).collect()
                };
                let (mut up, mut low) = (seed(rng), seed(rng));
                close(&mut up, m, n, Some(&lu_rows), None);
                close(&mut low, m, n, None, Some(&lu_cols));
                let upper = panel_over(&up, m, n, zeros, rng);
                let lower = panel_over(&low, m, n, 0.0, rng);
                let tag = format!("{tag} factor {factor_fill} panel {panel_fill}");
                assert_panel_lanes(&lu_rows, &upper, &lu_cols, &lower, &tag);
                assert_panel_lanes(
                    &lu_rows.cast::<f32>(),
                    &upper.cast::<f32>(),
                    &lu_cols.cast::<f32>(),
                    &lower.cast::<f32>(),
                    &tag,
                );

                for poison in [f64::INFINITY, f64::NAN] {
                    let mut scratch = KernelScratch::default();
                    let tag = format!("{tag} poison {poison}");
                    let mut bad = upper.clone();
                    bad.values_mut()[0] = poison;
                    let (mut want, mut got) = (bad.clone(), bad);
                    trsm::gessm(&lu_rows, &mut want, TrsmVariant::CV1, &mut scratch);
                    trsm::gessm(&lu_rows, &mut got, TrsmVariant::DV1, &mut scratch);
                    non_finite_kept(&want, &got, &format!("GESSM {tag}"));
                    let mut bad = lower.clone();
                    bad.values_mut()[0] = poison;
                    let (mut want, mut got) = (bad.clone(), bad);
                    trsm::tstrf(&lu_cols, &mut want, TrsmVariant::CV1, &mut scratch);
                    trsm::tstrf(&lu_cols, &mut got, TrsmVariant::DV1, &mut scratch);
                    non_finite_kept(&want, &got, &format!("TSTRF {tag}"));
                }
            }
        }
    }
}

/// Every entry `want` holds non-finite is non-finite in `got`, and there
/// is at least one.
fn non_finite_kept(want: &CscMatrix, got: &CscMatrix, tag: &str) {
    let mut poisoned = 0;
    for (w, g) in want.values().iter().zip(got.values()) {
        if !w.is_finite() {
            poisoned += 1;
            assert!(!g.is_finite(), "{tag}: the tile turned {w} into finite {g}");
        }
    }
    assert!(poisoned > 0, "{tag}: the poison never reached the result");
}

/// `C_V1`'s GETRF as naive dense loops on a column-major `n × n` block:
/// column `j` takes `k < j` ascending, skips a `U(k, j)` equal to zero,
/// floors its pivot and divides last.
fn naive_getrf<S: Scalar>(x: &mut [S], n: usize, pivot_floor: f64) -> usize {
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
        // A NaN pivot fails the test and is counted, as a zero one is.
        let kept = pivot.abs().to_f64() >= pivot_floor && pivot != S::ZERO;
        if !kept {
            perturbed += 1;
            if pivot_floor > 0.0 {
                let f = S::from_f64(pivot_floor);
                pivot = if pivot < S::ZERO { -f } else { f };
            }
        }
        x[j * n + j] = pivot;
        for r in j + 1..n {
            x[j * n + r] /= pivot;
        }
    }
    perturbed
}

/// The GETRF lane on `blk` equals `C_V1` and the naive loops: factor
/// bits and perturbed-pivot count.
fn assert_getrf_lane<S: Scalar>(blk: &CscMatrix<S>, pivot_floor: f64, tag: &str) {
    let mut scratch = KernelScratch::<S>::default();
    let n = blk.nrows();
    let tag = format!("GETRF {tag} {n}x{n} floor {pivot_floor:e} {}", S::LABEL);
    let mut got = blk.clone();
    let p_tile = getrf::getrf(&mut got, GetrfVariant::DV1, &mut scratch, pivot_floor);
    let mut want = blk.clone();
    let p_cv1 = getrf::getrf(&mut want, GetrfVariant::CV1, &mut scratch, pivot_floor);
    assert_eq!((p_cv1, bits(&want)), (p_tile, bits(&got)), "{tag}: tile != C_V1");
    let mut naive = blk.values().to_vec();
    let p_naive = naive_getrf(&mut naive, n, pivot_floor);
    let naive_bits: Vec<u64> = naive.iter().map(|v| v.to_f64().to_bits()).collect();
    assert_eq!((p_naive, naive_bits), (p_tile, bits(&got)), "{tag}: tile != naive loops");
}

/// Full diagonal blocks of order `n` that exercise every branch of the
/// lane's LU: a well-conditioned one, one with exact `+0.0` and `-0.0`
/// entries (so `U(k, j)` zeros are skipped, in the product and in the
/// tiles), one with tiny pivots, one whose first column is zero (a zero
/// pivot: without a floor its `L` column is non-finite) and one holding a
/// NaN.
fn getrf_blocks(n: usize, seed: u64) -> Vec<(&'static str, CscMatrix)> {
    let rng = &mut Lcg(seed);
    let dominant = block(n, n, 1.0, 0.0, 4.0 * n as f64, rng);
    let mut zeros = block(n, n, 1.0, 0.0, 4.0 * n as f64, rng);
    for (p, v) in zeros.values_mut().iter_mut().enumerate() {
        if rng.unit() < 0.2 && p % (n + 1) != 0 {
            *v = if rng.unit() < 0.5 { -0.0 } else { 0.0 };
        }
    }
    let mut tiny = block(n, n, 1.0, 0.0, 0.0, rng);
    for j in 0..n {
        tiny.values_mut()[j * n + j] = 1e-30 * (1.0 + j as f64);
    }
    let mut zero_pivot = dominant.clone();
    zero_pivot.values_mut()[..n].fill(0.0);
    let mut nan = zeros.clone();
    let at = (rng.unit() * (n * n) as f64) as usize;
    nan.values_mut()[at.min(n * n - 1)] = f64::NAN;
    vec![
        ("dominant", dominant),
        ("signed zeros", zeros),
        ("tiny pivots", tiny),
        ("zero pivot", zero_pivot),
        ("NaN", nan),
    ]
}

/// Every order up to one past the AVX2 instance's 16-row `f32` tile (so
/// every row and column remainder) and [`TALL`], in both widths, with the
/// pivot floor off, at the solver's default and large enough to perturb
/// most pivots.
#[test]
fn getrf_lane_matches_cv1_and_the_naive_loops() {
    let orders = (1..=17).chain(TALL);
    for (i, n) in orders.enumerate() {
        for (tag, blk) in getrf_blocks(n, 4_000 + i as u64) {
            for pivot_floor in [0.0, 1e-12, 0.5] {
                assert_getrf_lane(&blk, pivot_floor, tag);
                assert_getrf_lane(&blk.cast::<f32>(), pivot_floor, tag);
            }
        }
    }
}

/// The 2 × 2 block of ones: an exact zero pivot after one elimination
/// step, counted and left in place without a floor, floored with one.
#[test]
fn getrf_lane_counts_an_eliminated_zero_pivot() {
    let ones = CscMatrix::from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0; 4]).unwrap();
    for pivot_floor in [0.0, 1e-8] {
        assert_getrf_lane(&ones, pivot_floor, "ones");
        let mut got = ones.clone();
        let p =
            getrf::getrf(&mut got, GetrfVariant::DV1, &mut KernelScratch::default(), pivot_floor);
        assert_eq!((p, got.values()[3]), (1, pivot_floor));
    }
}

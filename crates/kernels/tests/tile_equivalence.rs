//! Property tests of the dense-tile lane (`D_V1`): on full targets it
//! must be **bitwise identical** to the sparse variants `C_V1` and `C_V2`
//! — every tile remainder in both dimensions, full and expanded (50–99 %
//! filled) operands, operand values that are exactly `0.0` (the sparse
//! kernels skip those, the tile multiplies through), `f64` and `f32`,
//! and fused batches that interleave tile-routed and sparse-routed
//! updates — and, next to it, of `C_V1` updating full target columns **in
//! place** against `C_V1` scattering the same column. The lane performs the same `c -= a·b` subtractions in the
//! same ascending-`k` order, so nothing here is a tolerance.
//!
//! CI runs this file in a debug and a release build: the claim must hold
//! with and without vectorisation.

use proptest::prelude::*;

use pangulu_kernels::{
    getrf, ssssm, trsm, GetrfVariant, KernelScratch, SsssmUpdate, SsssmVariant, TrsmVariant,
};
use pangulu_sparse::{CooMatrix, CscMatrix, Scalar};

/// Block dimensions the issue names: tiny ones for the remainders, 69
/// (kkt's last block row) and 119 (its block size).
const DIMS: [usize; 8] = [1, 2, 3, 5, 7, 8, 69, 119];

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

/// Every remainder of the 8- and 4-row tiles and of the 4-column tile,
/// with full and with expanded operands.
#[test]
fn every_tile_remainder_matches_the_sparse_variants() {
    for m in 1..=17 {
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
        (mi, ki, ni) in (0usize..8, 0usize..8, 0usize..8),
        (fa, fb, zeros) in (0.5f64..0.99, 0.5f64..0.99, 0.0f64..0.3),
        seed in 0u64..1_000_000,
    ) {
        check_shape(DIMS[mi], DIMS[ki], DIMS[ni], (fa, fb), zeros, seed);
    }

    /// A fused batch on one full target with tile-routed and
    /// sparse-routed updates interleaved equals one-at-a-time
    /// application of the same variants, and of `C_V1` throughout.
    #[test]
    fn interleaved_batches_match_one_at_a_time(
        (mi, ki, ni) in (0usize..7, 0usize..7, 0usize..7),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let rng = &mut Lcg(seed);
        let c0 = block(m, n, 1.0, 0.0, 0.0, rng);
        let plan = [
            (1.0, 1.0, SsssmVariant::DV1),
            (0.3, 0.4, SsssmVariant::CV1),
            (0.7, 0.9, SsssmVariant::DV1),
            (0.2, 0.5, SsssmVariant::CV2),
            (0.95, 0.6, SsssmVariant::DV1),
        ];
        let ops: Vec<(CscMatrix, CscMatrix)> = plan
            .iter()
            .map(|&(fa, fb, _)| (block(m, k, fa, 0.0, 0.0, rng), block(k, n, fb, 0.1, 0.0, rng)))
            .collect();
        let updates: Vec<SsssmUpdate<'_>> = ops
            .iter()
            .zip(&plan)
            .map(|((a, b), &(_, _, variant))| SsssmUpdate { a, b, variant, model_flops: 0.0 })
            .collect();
        let mut scratch = KernelScratch::default();

        let mut fused = c0.clone();
        ssssm::ssssm_batch(&updates, &mut fused, &mut scratch);
        let mut one_by_one = c0.clone();
        let mut all_cv1 = c0.clone();
        for u in &updates {
            ssssm::ssssm(u.a, u.b, &mut one_by_one, u.variant, &mut scratch);
            ssssm::ssssm(u.a, u.b, &mut all_cv1, SsssmVariant::CV1, &mut scratch);
        }
        prop_assert_eq!(bits(&one_by_one), bits(&fused));
        prop_assert_eq!(bits(&all_cv1), bits(&fused));
        // Any split of the batch gives the same bits as well.
        let mut split = c0.clone();
        ssssm::ssssm_batch(&updates[..2], &mut split, &mut scratch);
        ssssm::ssssm_batch(&updates[2..], &mut split, &mut scratch);
        prop_assert_eq!(bits(&fused), bits(&split));
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
    let non_finite_kept = |want: &CscMatrix, got: &CscMatrix, tag: &str| {
        let mut poisoned = 0;
        for (w, g) in want.values().iter().zip(got.values()) {
            if !w.is_finite() {
                poisoned += 1;
                assert!(!g.is_finite(), "{tag}: the tile turned {w} into finite {g}");
            }
        }
        assert!(poisoned > 0, "{tag}: the poison never reached the result");
    };
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

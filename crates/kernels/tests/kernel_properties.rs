//! Property tests of the kernel family: on random closed-pattern blocks,
//! every variant of a kernel class must agree with the dense reference,
//! and bit for bit with the class's `C_V1` — the decision trees choose
//! speed only, never a different factor.

use proptest::prelude::*;

use pangulu_kernels::{
    flops, getrf, reference, ssssm, trsm, GetrfVariant, KernelScratch, SsssmVariant, TrsmVariant,
};
use pangulu_sparse::ops::ensure_diagonal;
use pangulu_sparse::{CooMatrix, CscMatrix};
use pangulu_symbolic::symbolic_fill;

/// A random diagonally dominant matrix of order `2 * nb`, filled and cut
/// into the four blocks of a 2x2 block step.
fn blocks(
    nb: usize,
    entries: &[(usize, usize, f64)],
) -> (CscMatrix, CscMatrix, CscMatrix, CscMatrix) {
    let n = 2 * nb;
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0f64; n];
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            coo.push(i, j, v).unwrap();
            row_sum[i] += v.abs();
        }
    }
    for (i, &rs) in row_sum.iter().enumerate() {
        coo.push(i, i, rs + 1.0).unwrap();
    }
    let a = ensure_diagonal(&coo.to_csc()).unwrap();
    let f = symbolic_fill(&a).unwrap();
    let filled = f.filled_matrix(&a).unwrap();
    (
        filled.sub_matrix(0..nb, 0..nb),
        filled.sub_matrix(0..nb, nb..n),
        filled.sub_matrix(nb..n, 0..nb),
        filled.sub_matrix(nb..n, nb..n),
    )
}

fn inputs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..14).prop_flat_map(|nb| {
        (Just(nb), proptest::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 10..160))
    })
}

/// Like [`inputs`], but with a caller-chosen fill range (`lo..hi`
/// off-diagonal entries) to reach the near-empty and confined regimes.
fn sparse_inputs(lo: usize, hi: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..12).prop_flat_map(move |nb| {
        (
            Just(nb),
            proptest::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), lo..hi.max(lo + 1)),
        )
    })
}

/// Small orders with saturating fill: close-to-dense blocks.
fn dense_inputs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..8).prop_flat_map(|nb| {
        (Just(nb), proptest::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 300..500))
    })
}

/// Random entries plus the number of leading diagonal pivots to zero out.
fn singular_inputs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, usize)> {
    (4usize..10).prop_flat_map(|nb| {
        (
            Just(nb),
            proptest::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 5..60),
            1usize..3,
        )
    })
}

/// As [`blocks`], but the first `zeros` diagonal entries of the leading
/// block are *structurally present with value zero* — singular pivots
/// that only static perturbation can get past.
fn blocks_with_zero_pivots(
    nb: usize,
    entries: &[(usize, usize, f64)],
    zeros: usize,
) -> (CscMatrix, CscMatrix, CscMatrix, CscMatrix) {
    let n = 2 * nb;
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0f64; n];
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            coo.push(i, j, v).unwrap();
            row_sum[i] += v.abs();
        }
    }
    for (i, &rs) in row_sum.iter().enumerate() {
        // `apply_floor` treats exactly-zero pivots as singular; updates
        // from prior columns cannot touch row 0, so pivot 0 stays 0.
        let d = if i < zeros { 0.0 } else { rs + 1.0 };
        coo.push(i, i, d).unwrap();
    }
    let a = ensure_diagonal(&coo.to_csc()).unwrap();
    let f = symbolic_fill(&a).unwrap();
    let filled = f.filled_matrix(&a).unwrap();
    (
        filled.sub_matrix(0..nb, 0..nb),
        filled.sub_matrix(0..nb, nb..n),
        filled.sub_matrix(nb..n, 0..nb),
        filled.sub_matrix(nb..n, nb..n),
    )
}

/// Whether two blocks of one pattern hold the same value bits.
fn same_bits(a: &CscMatrix, b: &CscMatrix) -> bool {
    a.values().iter().map(|x| x.to_bits()).eq(b.values().iter().map(|x| x.to_bits()))
}

/// Runs the full kernel chain (GETRF → GESSM/TSTRF → SSSSM), comparing
/// every variant of every class against the dense reference and, bit for
/// bit, against the class's `C_V1`.
fn check_kernel_chain(
    nb: usize,
    diag: CscMatrix,
    upper: CscMatrix,
    lower: CscMatrix,
    tail: CscMatrix,
) {
    let mut scratch = KernelScratch::with_capacity(nb);
    let expect_lu = reference::ref_getrf(&diag.to_dense());
    let mut lu = diag.clone();
    getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 0.0);
    for v in [GetrfVariant::CV1, GetrfVariant::GV1, GetrfVariant::GV2] {
        let mut b = diag.clone();
        getrf::getrf(&mut b, v, &mut scratch, 0.0);
        assert!(b.to_dense().max_abs_diff(&expect_lu) < 1e-9, "GETRF {v:?}");
        assert!(same_bits(&b, &lu), "GETRF {v:?}: bits differ from C_V1");
    }

    let expect_u = reference::ref_gessm(&lu.to_dense(), &upper.to_dense());
    let expect_l = reference::ref_tstrf(&lu.to_dense(), &lower.to_dense());
    let mut u_op = upper.clone();
    trsm::gessm(&lu, &mut u_op, TrsmVariant::CV1, &mut scratch);
    let mut l_op = lower.clone();
    trsm::tstrf(&lu, &mut l_op, TrsmVariant::CV1, &mut scratch);
    for v in
        [TrsmVariant::CV1, TrsmVariant::CV2, TrsmVariant::GV1, TrsmVariant::GV2, TrsmVariant::GV3]
    {
        let mut b = upper.clone();
        trsm::gessm(&lu, &mut b, v, &mut scratch);
        assert!(b.to_dense().max_abs_diff(&expect_u) < 1e-9, "GESSM {v:?}");
        assert!(same_bits(&b, &u_op), "GESSM {v:?}: bits differ from C_V1");
        let mut b = lower.clone();
        trsm::tstrf(&lu, &mut b, v, &mut scratch);
        assert!(b.to_dense().max_abs_diff(&expect_l) < 1e-9, "TSTRF {v:?}");
        assert!(same_bits(&b, &l_op), "TSTRF {v:?}: bits differ from C_V1");
    }

    let mut expect = tail.to_dense();
    reference::ref_ssssm(&l_op.to_dense(), &u_op.to_dense(), &mut expect);
    let mut c_cv1 = tail.clone();
    ssssm::ssssm(&l_op, &u_op, &mut c_cv1, SsssmVariant::CV1, &mut scratch);
    for v in [SsssmVariant::CV1, SsssmVariant::CV2, SsssmVariant::GV1, SsssmVariant::GV2] {
        let mut c = tail.clone();
        ssssm::ssssm(&l_op, &u_op, &mut c, v, &mut scratch);
        assert!(c.to_dense().max_abs_diff(&expect) < 1e-9, "SSSSM {v:?}");
        assert!(same_bits(&c, &c_cv1), "SSSSM {v:?}: bits differ from C_V1");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_getrf_variants_match_reference((nb, entries) in inputs()) {
        let (diag, ..) = blocks(nb, &entries);
        let expect = reference::ref_getrf(&diag.to_dense());
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut cv1 = diag.clone();
        getrf::getrf(&mut cv1, GetrfVariant::CV1, &mut scratch, 0.0);
        for v in [GetrfVariant::CV1, GetrfVariant::GV1, GetrfVariant::GV2] {
            let mut b = diag.clone();
            getrf::getrf(&mut b, v, &mut scratch, 0.0);
            prop_assert!(b.to_dense().max_abs_diff(&expect) < 1e-9, "{v:?}");
            prop_assert!(same_bits(&b, &cv1), "{v:?}: bits differ from C_V1");
        }
    }

    #[test]
    fn all_trsm_variants_match_reference((nb, entries) in inputs()) {
        let (diag, upper, lower, _) = blocks(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut lu = diag;
        getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 0.0);
        let expect_u = reference::ref_gessm(&lu.to_dense(), &upper.to_dense());
        let expect_l = reference::ref_tstrf(&lu.to_dense(), &lower.to_dense());
        let mut cv1_u = upper.clone();
        trsm::gessm(&lu, &mut cv1_u, TrsmVariant::CV1, &mut scratch);
        let mut cv1_l = lower.clone();
        trsm::tstrf(&lu, &mut cv1_l, TrsmVariant::CV1, &mut scratch);
        for v in [
            TrsmVariant::CV1,
            TrsmVariant::CV2,
            TrsmVariant::GV1,
            TrsmVariant::GV2,
            TrsmVariant::GV3,
        ] {
            let mut b = upper.clone();
            trsm::gessm(&lu, &mut b, v, &mut scratch);
            prop_assert!(b.to_dense().max_abs_diff(&expect_u) < 1e-9, "GESSM {v:?}");
            prop_assert!(same_bits(&b, &cv1_u), "GESSM {v:?}: bits differ from C_V1");
            let mut b = lower.clone();
            trsm::tstrf(&lu, &mut b, v, &mut scratch);
            prop_assert!(b.to_dense().max_abs_diff(&expect_l) < 1e-9, "TSTRF {v:?}");
            prop_assert!(same_bits(&b, &cv1_l), "TSTRF {v:?}: bits differ from C_V1");
        }
    }

    #[test]
    fn all_ssssm_variants_match_reference((nb, entries) in inputs()) {
        let (diag, upper, lower, tail) = blocks(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut lu = diag;
        getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 0.0);
        let mut u_op = upper;
        trsm::gessm(&lu, &mut u_op, TrsmVariant::CV1, &mut scratch);
        let mut l_op = lower;
        trsm::tstrf(&lu, &mut l_op, TrsmVariant::CV1, &mut scratch);
        let mut expect = tail.to_dense();
        reference::ref_ssssm(&l_op.to_dense(), &u_op.to_dense(), &mut expect);
        let mut cv1 = tail.clone();
        ssssm::ssssm(&l_op, &u_op, &mut cv1, SsssmVariant::CV1, &mut scratch);
        for v in [SsssmVariant::CV1, SsssmVariant::CV2, SsssmVariant::GV1, SsssmVariant::GV2] {
            let mut c = tail.clone();
            ssssm::ssssm(&l_op, &u_op, &mut c, v, &mut scratch);
            prop_assert!(c.to_dense().max_abs_diff(&expect) < 1e-9, "{v:?}");
            prop_assert!(same_bits(&c, &cv1), "{v:?}: bits differ from C_V1");
        }
    }

    #[test]
    fn near_empty_blocks_match_reference((nb, entries) in sparse_inputs(0, 6)) {
        // Blocks that are almost pure diagonal: the panel and tail blocks
        // carry only fill-in, exercising the all-empty-rows paths.
        let (diag, upper, lower, tail) = blocks(nb, &entries);
        check_kernel_chain(nb, diag, upper, lower, tail);
    }

    #[test]
    fn dense_fills_match_reference((nb, entries) in dense_inputs()) {
        // Saturated patterns: after symbolic fill these blocks are close
        // to fully dense, the regime the GV variants are tuned for.
        let (diag, upper, lower, tail) = blocks(nb, &entries);
        check_kernel_chain(nb, diag, upper, lower, tail);
    }

    #[test]
    fn panels_with_empty_rows_match_reference((nb, entries) in sparse_inputs(10, 80)) {
        // Entries confined to the leading sub-block: the off-diagonal
        // panels own no original entries, so whole rows/columns of the
        // operands are structurally empty (or fill-in only).
        let n = 2 * nb;
        let confined: Vec<(usize, usize, f64)> =
            entries.iter().map(|&(i, j, v)| (i % nb, j % nb, v)).collect();
        let _ = n;
        let (diag, upper, lower, tail) = blocks(nb, &confined);
        check_kernel_chain(nb, diag, upper, lower, tail);
    }

    #[test]
    fn singular_pivots_are_perturbed_identically((nb, entries, zeros) in singular_inputs()) {
        // Zero out a prefix of the diagonal: every GETRF variant must
        // perturb the same pivots (SuperLU_DIST static-pivoting rule),
        // report the same count, and produce `C_V1`'s finite factors, bit
        // for bit.
        let (diag, ..) = blocks_with_zero_pivots(nb, &entries, zeros);
        let floor = 1e-8;
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut results = Vec::new();
        for v in [GetrfVariant::CV1, GetrfVariant::GV1, GetrfVariant::GV2] {
            let mut b = diag.clone();
            let perturbed = getrf::getrf(&mut b, v, &mut scratch, floor);
            prop_assert!(perturbed >= 1, "{v:?}: a zeroed leading pivot must be perturbed");
            prop_assert!(b.values().iter().all(|x| x.is_finite()), "{v:?}: factors not finite");
            results.push((perturbed, b));
        }
        for (p, b) in &results[1..] {
            prop_assert_eq!(*p, results[0].0, "perturbation counts must agree across variants");
            prop_assert!(
                b.to_dense().max_abs_diff(&results[0].1.to_dense()) < 1e-9,
                "perturbed factors must agree across variants"
            );
            prop_assert!(same_bits(b, &results[0].1), "perturbed factors differ from C_V1's bits");
        }
    }

    #[test]
    fn flop_counts_are_pattern_functions((nb, entries) in inputs()) {
        // FLOP accounting depends only on patterns: the same block with
        // different values reports identical counts.
        let (diag, upper, lower, _) = blocks(nb, &entries);
        let diag2 = diag.with_constant_values(7.5);
        prop_assert_eq!(flops::getrf_flops(&diag), flops::getrf_flops(&diag2));
        prop_assert_eq!(
            flops::gessm_flops(&diag, &upper),
            flops::gessm_flops(&diag2, &upper.with_constant_values(1.0))
        );
        prop_assert_eq!(
            flops::tstrf_flops(&diag, &lower),
            flops::tstrf_flops(&diag2, &lower.with_constant_values(1.0))
        );
    }
}

//! Property tests of the kernel plan layer: on random closed-pattern
//! blocks, every planned entry point must be **bitwise identical** to its
//! unplanned `C_V1` counterpart — not merely close. The plan records the
//! exact index walk of the scalar kernel, so the floating-point operation
//! sequence (and hence every rounding) is the same.

use proptest::prelude::*;

use pangulu_kernels::{
    getrf, plan, reference, ssssm, trsm, GetrfVariant, KernelScratch, SsssmVariant, TrsmVariant,
};
use pangulu_sparse::ops::ensure_diagonal;
use pangulu_sparse::{CooMatrix, CscMatrix, DenseMatrix, Scalar};
use pangulu_symbolic::symbolic_fill;

/// A random diagonally dominant matrix of order `2 * nb`, filled and cut
/// into the four blocks of a 2x2 block step (pattern transitively closed
/// by the symbolic fill — the contract every plan builder assumes).
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

/// Near-empty fill: exercises empty columns, no-op plans and panels that
/// vanish entirely.
fn sparse_inputs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..12).prop_flat_map(|nb| {
        (Just(nb), proptest::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..8))
    })
}

/// The factored diagonal and the solved operand panels of the 2x2 step.
fn chain(
    nb: usize,
    entries: &[(usize, usize, f64)],
) -> (CscMatrix, CscMatrix, CscMatrix, CscMatrix, CscMatrix, CscMatrix) {
    let (diag, upper, lower, tail) = blocks(nb, entries);
    let mut scratch = KernelScratch::with_capacity(nb);
    let mut lu = diag;
    getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 1e-12);
    let mut u_op = upper.clone();
    trsm::gessm(&lu, &mut u_op, TrsmVariant::CV1, &mut scratch);
    let mut l_op = lower.clone();
    trsm::tstrf(&lu, &mut l_op, TrsmVariant::CV1, &mut scratch);
    (lu, upper, lower, u_op, l_op, tail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planned_getrf_is_bitwise_identical((nb, entries) in inputs()) {
        let (diag, ..) = blocks(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut want = diag.clone();
        let perturbed = getrf::getrf(&mut want, GetrfVariant::CV1, &mut scratch, 1e-12);
        let mut arena = Vec::new();
        let p = plan::build_getrf_plan(&diag, &mut arena);
        let mut got = diag.clone();
        let planned_perturbed = plan::getrf_planned(&mut got, &p, &arena, 1e-12);
        prop_assert_eq!(want.values(), got.values());
        prop_assert_eq!(perturbed, planned_perturbed);
    }

    #[test]
    fn planned_gessm_is_bitwise_identical((nb, entries) in inputs()) {
        let (lu, upper, _, _, _, _) = chain(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut want = upper.clone();
        trsm::gessm(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        let mut arena = Vec::new();
        let p = plan::build_gessm_plan(&lu, &upper, &mut arena);
        let mut got = upper.clone();
        plan::gessm_planned(&lu, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());
    }

    #[test]
    fn planned_tstrf_is_bitwise_identical((nb, entries) in inputs()) {
        let (lu, _, lower, _, _, _) = chain(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut want = lower.clone();
        trsm::tstrf(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        let mut arena = Vec::new();
        let p = plan::build_tstrf_plan(&lu, &lower, &mut arena);
        let mut got = lower.clone();
        plan::tstrf_planned(&lu, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());
    }

    #[test]
    fn planned_ssssm_is_bitwise_identical((nb, entries) in inputs()) {
        let (_, _, _, u_op, l_op, tail) = chain(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut want = tail.clone();
        ssssm::ssssm(&l_op, &u_op, &mut want, pangulu_kernels::SsssmVariant::CV1, &mut scratch);
        let mut arena = Vec::new();
        let p = plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena);
        let mut got = tail.clone();
        plan::ssssm_planned(&l_op, &u_op, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());
    }

    /// A mixed batch: several updates land on the same target block, some
    /// applied planned, some unplanned, in every interleaving of two. The
    /// result must equal the all-unplanned sequence bitwise — this is
    /// exactly what a distributed rank does when the selector plans some
    /// SSSSM tasks of a fused batch and falls back on others.
    #[test]
    fn mixed_planned_unplanned_batches_match((nb, entries) in inputs()) {
        let (_, _, _, u_op, l_op, tail) = chain(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut arena = Vec::new();
        let p = plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena);

        let mut want = tail.clone();
        ssssm::ssssm(&l_op, &u_op, &mut want, pangulu_kernels::SsssmVariant::CV1, &mut scratch);
        ssssm::ssssm(&l_op, &u_op, &mut want, pangulu_kernels::SsssmVariant::CV1, &mut scratch);

        // planned → unplanned
        let mut got = tail.clone();
        plan::ssssm_planned(&l_op, &u_op, &mut got, &p, &arena);
        ssssm::ssssm(&l_op, &u_op, &mut got, pangulu_kernels::SsssmVariant::CV1, &mut scratch);
        prop_assert_eq!(want.values(), got.values());

        // unplanned → planned (the plan is pattern-only, so it applies to
        // the already-updated values unchanged)
        let mut got = tail.clone();
        ssssm::ssssm(&l_op, &u_op, &mut got, pangulu_kernels::SsssmVariant::CV1, &mut scratch);
        plan::ssssm_planned(&l_op, &u_op, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());
    }

    /// Near-empty and fully empty panels: plans degrade to no-ops without
    /// panicking, and stay bitwise identical.
    #[test]
    fn degenerate_blocks_are_bitwise_identical((nb, entries) in sparse_inputs()) {
        let (lu, upper, lower, u_op, l_op, tail) = chain(nb, &entries);
        let mut scratch = KernelScratch::with_capacity(nb);
        let mut arena = Vec::new();

        let p = plan::build_gessm_plan(&lu, &upper, &mut arena);
        let mut want = upper.clone();
        trsm::gessm(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        let mut got = upper.clone();
        plan::gessm_planned(&lu, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());

        let p = plan::build_tstrf_plan(&lu, &lower, &mut arena);
        let mut want = lower.clone();
        trsm::tstrf(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        let mut got = lower.clone();
        plan::tstrf_planned(&lu, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());

        let p = plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena);
        let mut want = tail.clone();
        ssssm::ssssm(&l_op, &u_op, &mut want, pangulu_kernels::SsssmVariant::CV1, &mut scratch);
        let mut got = tail.clone();
        plan::ssssm_planned(&l_op, &u_op, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());
    }
}

/// Runs all four kernels through their run-segment plans in scalar type
/// `S` and asserts each replay equals the unplanned `C_V1` kernel bit
/// for bit (slice loops over the same element order: no reduction
/// reorder, no FMA) and the dense reference within roundoff — the
/// independent oracle, since the unplanned kernels share the run-based
/// slice loops.
fn assert_replay_matches<S: Scalar>(
    diag: &CscMatrix<S>,
    upper: &CscMatrix<S>,
    lower: &CscMatrix<S>,
    tail: &CscMatrix<S>,
) {
    let nb = diag.ncols();
    let mut scratch = KernelScratch::<S>::with_capacity(nb);
    let mut lu = diag.clone();
    let perturbed = getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 1e-12);
    let mut u_op = upper.clone();
    trsm::gessm(&lu, &mut u_op, TrsmVariant::CV1, &mut scratch);
    let mut l_op = lower.clone();
    trsm::tstrf(&lu, &mut l_op, TrsmVariant::CV1, &mut scratch);
    let mut want_tail = tail.clone();
    ssssm::ssssm(&l_op, &u_op, &mut want_tail, SsssmVariant::CV1, &mut scratch);

    let tol = if S::WIDTH == 4 { 1e-4 } else { 1e-10 };
    let near_dense = |got: &CscMatrix<S>, want: &DenseMatrix, kernel: &str| {
        let rel = got.to_dense().max_abs_diff(want) / want.norm_max().max(1.0);
        assert!(rel < tol, "{kernel} replay is {rel} off the dense reference");
    };
    let dense_lu = reference::ref_getrf(&diag.to_dense());
    let dense_u = reference::ref_gessm(&dense_lu, &upper.to_dense());
    let dense_l = reference::ref_tstrf(&dense_lu, &lower.to_dense());
    let mut dense_tail = tail.to_dense();
    reference::ref_ssssm(&dense_l, &dense_u, &mut dense_tail);

    let mut arena = Vec::new();
    let p = plan::build_getrf_plan(diag, &mut arena);
    let mut got = diag.clone();
    let got_perturbed = plan::getrf_planned(&mut got, &p, &arena, 1e-12);
    assert_eq!(lu.values(), got.values(), "GETRF diverged");
    assert_eq!(perturbed, got_perturbed, "GETRF pivot count diverged");
    near_dense(&got, &dense_lu, "GETRF");

    let p = plan::build_gessm_plan(&lu, upper, &mut arena);
    let mut got = upper.clone();
    plan::gessm_planned(&lu, &mut got, &p, &arena);
    assert_eq!(u_op.values(), got.values(), "GESSM diverged");
    near_dense(&got, &dense_u, "GESSM");

    let p = plan::build_tstrf_plan(&lu, lower, &mut arena);
    let mut got = lower.clone();
    plan::tstrf_planned(&lu, &mut got, &p, &arena);
    assert_eq!(l_op.values(), got.values(), "TSTRF diverged");
    near_dense(&got, &dense_l, "TSTRF");

    let p = plan::build_ssssm_plan(&l_op, &u_op, tail, &mut arena);
    let mut got = tail.clone();
    plan::ssssm_planned(&l_op, &u_op, &mut got, &p, &arena);
    assert_eq!(want_tail.values(), got.values(), "SSSSM diverged");
    near_dense(&got, &dense_tail, "SSSSM");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Run-segment replay == unplanned kernel, bitwise, and == dense
    /// reference within roundoff, in both f64 and the mixed path's f32.
    #[test]
    fn run_replay_matches_unplanned_and_dense_both_widths(
        (nb, entries) in inputs()
    ) {
        let (diag, upper, lower, tail) = blocks(nb, &entries);
        assert_replay_matches(&diag, &upper, &lower, &tail);
        assert_replay_matches(
            &diag.cast::<f32>(),
            &upper.cast::<f32>(),
            &lower.cast::<f32>(),
            &tail.cast::<f32>(),
        );
    }

    /// The same pin on near-empty patterns: empty columns and vanishing
    /// panels must replay identically.
    #[test]
    fn run_replay_degenerate_patterns_both_widths(
        (nb, entries) in sparse_inputs()
    ) {
        let (diag, upper, lower, tail) = blocks(nb, &entries);
        assert_replay_matches(&diag, &upper, &lower, &tail);
        assert_replay_matches(
            &diag.cast::<f32>(),
            &upper.cast::<f32>(),
            &lower.cast::<f32>(),
            &tail.cast::<f32>(),
        );
    }
}

/// Crafted degenerate shapes the random strategies rarely hit together:
/// an all-gaps (alternating-row) panel column, a single-run column and
/// empty columns, replayed in both widths.
#[test]
fn run_replay_alternating_gaps_and_single_runs() {
    let nb = 8;
    let mut entries = Vec::new();
    // Column nb+1 of the upper panel: alternating rows 0,2,4,6 (every
    // run is length 1 — worst case for the run encoding).
    for i in [0usize, 2, 4, 6] {
        entries.push((i, nb + 1, 1.0 + i as f64 / 4.0));
    }
    // Column nb+3: one contiguous run 2..=5 (best case).
    for i in 2usize..6 {
        entries.push((i, nb + 3, -1.25 + i as f64 / 8.0));
    }
    // Lower panel mirrors; columns nb+0/nb+2 of the tail stay empty.
    for j in [0usize, 2, 4, 6] {
        entries.push((nb + j, 1, 0.5 + j as f64 / 4.0));
    }
    for j in 2usize..6 {
        entries.push((nb + j, 3, 0.75 - j as f64 / 8.0));
    }
    let (diag, upper, lower, tail) = blocks(nb, &entries);
    assert_replay_matches(&diag, &upper, &lower, &tail);
    assert_replay_matches(
        &diag.cast::<f32>(),
        &upper.cast::<f32>(),
        &lower.cast::<f32>(),
        &tail.cast::<f32>(),
    );
}

/// A structurally empty panel (zero stored entries): every builder must
/// produce an empty plan and every executor must be a no-op.
#[test]
fn structurally_empty_panels_are_noops() {
    let nb = 6;
    let mut coo = CooMatrix::new(nb, nb);
    for i in 0..nb {
        coo.push(i, i, 2.0 + i as f64).unwrap();
    }
    let diag = coo.to_csc();
    let mut scratch = KernelScratch::with_capacity(nb);
    let mut lu = diag.clone();
    getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 1e-12);
    let empty = CooMatrix::new(nb, nb).to_csc();

    let mut arena = Vec::new();
    let p = plan::build_gessm_plan(&lu, &empty, &mut arena);
    assert_eq!(p.searches_avoided, 0);
    let mut b = empty.clone();
    plan::gessm_planned(&lu, &mut b, &p, &arena);
    assert_eq!(b.values(), empty.values());

    let p = plan::build_tstrf_plan(&lu, &empty, &mut arena);
    let mut b = empty.clone();
    plan::tstrf_planned(&lu, &mut b, &p, &arena);
    assert_eq!(b.values(), empty.values());

    let p = plan::build_ssssm_plan(&empty, &empty, &empty, &mut arena);
    assert_eq!(p.searches_avoided, 0);
    let mut c = empty.clone();
    plan::ssssm_planned(&empty, &empty, &mut c, &p, &arena);
    assert_eq!(c.values(), empty.values());
    assert!(arena.is_empty(), "degenerate plans must not grow the arena");
}

//! Property tests of the kernel plan layer: on random closed-pattern
//! blocks, every planned entry point must be **bitwise identical** to its
//! unplanned `C_V1` counterpart — not merely close. The plan records the
//! exact index walk of the scalar kernel, so the floating-point operation
//! sequence (and hence every rounding) is the same.

use proptest::prelude::*;

use pangulu_kernels::{
    flops, getrf, plan, reference, ssssm, trsm, GetrfVariant, KernelPlans, KernelScratch,
    KernelSelector, PlanTask, Route, SsssmVariant, Thresholds, TimedKernels, TrsmVariant,
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
        let p = plan::build_getrf_plan(&diag, &mut arena).unwrap();
        let mut got = diag.clone();
        let planned_perturbed = plan::getrf_planned(&mut got, &p, &arena, &mut scratch, 1e-12);
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
        let p = plan::build_gessm_plan(&lu, &upper, &mut arena).unwrap();
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
        let p = plan::build_tstrf_plan(&lu, &lower, &mut arena).unwrap();
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
        let p = plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena).unwrap();
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
        let p = plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena).unwrap();

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

        let p = plan::build_gessm_plan(&lu, &upper, &mut arena).unwrap();
        let mut want = upper.clone();
        trsm::gessm(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        let mut got = upper.clone();
        plan::gessm_planned(&lu, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());

        let p = plan::build_tstrf_plan(&lu, &lower, &mut arena).unwrap();
        let mut want = lower.clone();
        trsm::tstrf(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
        let mut got = lower.clone();
        plan::tstrf_planned(&lu, &mut got, &p, &arena);
        prop_assert_eq!(want.values(), got.values());

        let p = plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena).unwrap();
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
    let p = plan::build_getrf_plan(diag, &mut arena).unwrap();
    let mut got = diag.clone();
    let got_perturbed = plan::getrf_planned(&mut got, &p, &arena, &mut scratch, 1e-12);
    assert_eq!(lu.values(), got.values(), "GETRF diverged");
    assert_eq!(perturbed, got_perturbed, "GETRF pivot count diverged");
    near_dense(&got, &dense_lu, "GETRF");

    let p = plan::build_gessm_plan(&lu, upper, &mut arena).unwrap();
    let mut got = upper.clone();
    plan::gessm_planned(&lu, &mut got, &p, &arena);
    assert_eq!(u_op.values(), got.values(), "GESSM diverged");
    near_dense(&got, &dense_u, "GESSM");

    let p = plan::build_tstrf_plan(&lu, lower, &mut arena).unwrap();
    let mut got = lower.clone();
    plan::tstrf_planned(&lu, &mut got, &p, &arena);
    assert_eq!(l_op.values(), got.values(), "TSTRF diverged");
    near_dense(&got, &dense_l, "TSTRF");

    let p = plan::build_ssssm_plan(&l_op, &u_op, tail, &mut arena).unwrap();
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

/// Random closed patterns heavy in one-entry runs: one to three entries
/// per row of a 2x2-block step leave the fill sparse, so a step's sources
/// rarely sit next to each other in its target column. Every replay is
/// `C_V1` bit for bit in both widths, and across the patterns most runs
/// are one-entry runs (their tagged form), with longer runs among them.
#[test]
fn replay_matches_on_patterns_heavy_in_one_entry_runs() {
    let mut state = 0x5eed_u64;
    let mut draw = |m: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    let (mut runs, mut singles) = (0u64, 0u64);
    for _ in 0..64 {
        let nb = 8 + draw(24);
        let count = nb + draw(2 * nb);
        let entries: Vec<_> =
            (0..count).map(|_| (draw(2 * nb), draw(2 * nb), 0.5 + draw(8) as f64 / 4.0)).collect();
        let (diag, upper, lower, tail) = blocks(nb, &entries);
        assert_replay_matches(&diag, &upper, &lower, &tail);
        assert_replay_matches(
            &diag.cast::<f32>(),
            &upper.cast::<f32>(),
            &lower.cast::<f32>(),
            &tail.cast::<f32>(),
        );
        let (lu, _, _, u_op, l_op, _) = chain(nb, &entries);
        let mut arena = Vec::new();
        let plans = [
            plan::build_getrf_plan(&diag, &mut arena),
            plan::build_gessm_plan(&lu, &upper, &mut arena),
            plan::build_tstrf_plan(&lu, &lower, &mut arena),
            plan::build_ssssm_plan(&l_op, &u_op, &tail, &mut arena),
        ];
        runs += plans.iter().map(|p| u64::from(p.unwrap().runs)).sum::<u64>();
        singles += arena.iter().filter(|&&v| v & plan::SINGLE != 0).count() as u64;
    }
    assert!(2 * singles > runs && singles < runs, "{singles} one-entry runs of {runs}");
}

/// A structurally empty panel (zero stored entries): every builder must
/// produce a plan with no column and every executor must be a no-op.
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
    let p = plan::build_gessm_plan(&lu, &empty, &mut arena).unwrap();
    assert_eq!(p.searches_avoided, 0);
    let mut b = empty.clone();
    plan::gessm_planned(&lu, &mut b, &p, &arena);
    assert_eq!(b.values(), empty.values());

    let p = plan::build_tstrf_plan(&lu, &empty, &mut arena).unwrap();
    let mut b = empty.clone();
    plan::tstrf_planned(&lu, &mut b, &p, &arena);
    assert_eq!(b.values(), empty.values());

    let p = plan::build_ssssm_plan(&empty, &empty, &empty, &mut arena).unwrap();
    assert_eq!(p.searches_avoided, 0);
    let mut c = empty.clone();
    plan::ssssm_planned(&empty, &empty, &mut c, &p, &arena);
    assert_eq!(c.values(), empty.values());
    assert_eq!(arena, [0; 3], "a degenerate plan is its zero column count");
}

/// The blocks of one `n`-row step, built so every arena element class
/// reaches `n - 1` or `n`: a diagonal block whose first and last columns
/// are full (its last column's diagonal sits at offset `n - 1` and takes
/// one `n - 1`-long run), an upper panel whose full first column takes
/// that run again, a lower panel whose full first and last columns make
/// one `n`-long run, and an SSSSM whose target column misses one row, so
/// it is not full and takes an `n - 1`-long run plus a one-entry run per
/// other even row.
struct TallStep {
    diag: CscMatrix,
    upper: CscMatrix,
    lower: CscMatrix,
    a: CscMatrix,
    b: CscMatrix,
    c: CscMatrix,
}

fn tall_step(n: usize) -> TallStep {
    let csc = |ncols: usize, entries: &mut dyn Iterator<Item = (usize, usize)>| {
        let mut coo = CooMatrix::new(n, ncols);
        for (i, j) in entries {
            let v = if i == j { 4.0 } else { 0.25 + (i % 7) as f64 / 8.0 };
            coo.push(i, j, v).unwrap();
        }
        coo.to_csc()
    };
    let full = |j: usize| (0..n).map(move |i| (i, j));
    let diag = csc(n, &mut full(0).chain((1..n - 1).map(|j| (j, j))).chain(full(n - 1)));
    let evens = |j: usize| (2..n).step_by(2).map(move |i| (i, j));
    let upper = csc(3, &mut full(0).chain(evens(1)).chain([(n - 1, 2)]));
    let lower = csc(n, &mut full(0).chain([(3, 1), (5, 1)]).chain(full(n - 1)));
    let mut coo = CooMatrix::new(3, 2);
    for (i, j) in [(0, 0), (1, 0), (2, 0), (1, 1)] {
        coo.push(i, j, 0.5 + i as f64).unwrap();
    }
    let b = coo.to_csc();
    let but_row_1 = |j: usize| full(j).filter(|&(i, _)| i != 1);
    let a = csc(3, &mut but_row_1(0).chain([(n - 1, 1)]).chain((0..n).step_by(2).map(|i| (i, 2))));
    let c = csc(2, &mut but_row_1(0).chain([(0, 1), (n - 1, 1)]));
    TallStep { diag, upper, lower, a, b, c }
}

fn bits<S: Scalar>(m: &CscMatrix<S>) -> Vec<u64> {
    m.values().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Runs the four tasks of `step` in scalar type `S` along the routes a
/// pool with every planned gate open gives them, holds each result to
/// `C_V1` bit for bit, and returns which tasks replayed a plan.
fn route_tall_step<S: Scalar>(step: &TallStep) -> [bool; 4] {
    let [diag, upper, lower, a, b, c] =
        [&step.diag, &step.upper, &step.lower, &step.a, &step.b, &step.c].map(|m| m.cast::<S>());
    let open = Thresholds {
        getrf_planned: f64::INFINITY,
        gessm_planned: f64::INFINITY,
        tstrf_planned: f64::INFINITY,
        ssssm_planned: f64::INFINITY,
    };
    let sel = KernelSelector::new(1 << 20, open);
    let n = diag.nrows();
    let mut scratch = KernelScratch::<S>::with_capacity(n);
    let mut lu = diag.clone();
    getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 1e-12);
    let update_flops = flops::ssssm_flops(&a, &b);

    let mut pool = KernelPlans::<S>::with_slots(1, 1, 1, 1);
    pool.build(&sel, |add| {
        add(PlanTask::Getrf { slot: 0, a: &diag });
        add(PlanTask::Gessm { slot: 0, diag_lu: &lu, b: &upper });
        add(PlanTask::Tstrf { slot: 0, diag_lu: &lu, b: &lower });
        add(PlanTask::Ssssm { slot: 0, flops: update_flops, a: &a, b: &b, c: &c });
    });
    let mut timed = TimedKernels::new(false);
    let mut planned = [false; 4];

    let mut got = diag.clone();
    let route = pool.route_getrf(&sel, 0, &diag);
    planned[0] = matches!(route, Route::Plan(..));
    timed.getrf(route, &mut got, &mut scratch, 1e-12, 0.0);
    assert_eq!(bits(&got), bits(&lu), "{n} rows: GETRF diverged");

    let (mut want, mut got) = (upper.clone(), upper.clone());
    trsm::gessm(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
    let route = pool.route_gessm(&sel, 0, flops::gessm_flops(&lu, &upper), &lu, &upper);
    planned[1] = matches!(route, Route::Plan(..));
    timed.gessm(route, &lu, &mut got, &mut scratch, 0.0);
    assert_eq!(bits(&got), bits(&want), "{n} rows: GESSM diverged");

    let (mut want, mut got) = (lower.clone(), lower.clone());
    trsm::tstrf(&lu, &mut want, TrsmVariant::CV1, &mut scratch);
    let route = pool.route_tstrf(&sel, 0, flops::tstrf_flops(&lu, &lower), &lu, &lower);
    planned[2] = matches!(route, Route::Plan(..));
    timed.tstrf(route, &lu, &mut got, &mut scratch, 0.0);
    assert_eq!(bits(&got), bits(&want), "{n} rows: TSTRF diverged");

    let (mut want, mut got) = (c.clone(), c.clone());
    ssssm::ssssm(&a, &b, &mut want, SsssmVariant::CV1, &mut scratch);
    let route = pool.route_ssssm(&sel, 0, update_flops, &a, &c);
    planned[3] = matches!(route, Route::Plan(..));
    timed.ssssm(route, &a, &b, &mut got, &mut scratch, 0.0);
    assert_eq!(bits(&got), bits(&want), "{n} rows: SSSSM diverged");
    planned
}

/// A 32 767-row block — the largest below the tag bit — is planned in
/// both widths, its arena elements reach the top of the untagged range,
/// and every replay is `C_V1` bit for bit.
#[test]
fn blocks_of_32767_rows_are_planned_below_the_tag_bit() {
    let n = usize::from(plan::SINGLE) - 1;
    assert!(plan::fits(n));
    let step = tall_step(n);
    assert_eq!(route_tall_step::<f64>(&step), [true; 4]);
    assert_eq!(route_tall_step::<f32>(&step), [true; 4]);

    let mut lu = step.diag.clone();
    let mut scratch = KernelScratch::with_capacity(n);
    getrf::getrf(&mut lu, GetrfVariant::CV1, &mut scratch, 1e-12);
    let mut arena = Vec::new();
    let plans = [
        plan::build_getrf_plan(&step.diag, &mut arena),
        plan::build_gessm_plan(&lu, &step.upper, &mut arena),
        plan::build_tstrf_plan(&lu, &step.lower, &mut arena),
        plan::build_ssssm_plan(&step.a, &step.b, &step.c, &mut arena),
    ];
    assert!(plans.iter().all(Option::is_some));
    // The TSTRF run's length and the last diagonal positions, and the
    // SSSSM's one-entry run at row n - 1 (offset n - 2 past the hole).
    let plain = || arena.iter().filter(|&&v| v & plan::SINGLE == 0);
    assert_eq!(plain().max(), Some(&(plan::SINGLE - 1)));
    assert!(plain().filter(|&&v| v >= plan::SINGLE - 2).count() >= 3);
    assert!(arena.contains(&(plan::SINGLE | (plan::SINGLE - 3))));
}

/// One row more and no plan fits: the pool builds nothing and every task
/// runs its variant, still `C_V1` bit for bit.
#[test]
fn blocks_of_32768_rows_run_their_variant() {
    let n = usize::from(plan::SINGLE);
    assert!(!plan::fits(n));
    let step = tall_step(n);
    assert_eq!(route_tall_step::<f64>(&step), [false; 4]);
    assert_eq!(route_tall_step::<f32>(&step), [false; 4]);
    let mut arena = Vec::new();
    assert!(plan::build_getrf_plan(&step.diag, &mut arena).is_none());
    assert!(plan::build_ssssm_plan(&step.a, &step.b, &step.c, &mut arena).is_none());
    assert!(arena.is_empty());
}

/// The width guard is on rows, not entries: an f32 block of 67 599
/// entries — full but for `L(n-1, 0)`, so not the dense-tile lane's — is
/// planned under the shipped gates and replays `C_V1` bit for bit.
#[test]
fn f32_blocks_of_more_than_65535_entries_are_planned() {
    let n = 260;
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        for i in 0..n {
            if (i, j) == (n - 1, 0) {
                continue;
            }
            let v = if i == j { n as f64 } else { ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5 };
            coo.push(i, j, v).unwrap();
        }
    }
    let block = coo.to_csc().cast::<f32>();
    assert!(block.nnz() > usize::from(u16::MAX));
    let sel = KernelSelector::new(1 << 20, Thresholds::default());
    let mut pool = KernelPlans::<f32>::with_slots(1, 0, 0, 0);
    pool.build(&sel, |add| add(PlanTask::Getrf { slot: 0, a: &block }));
    let route = pool.route_getrf(&sel, 0, &block);
    assert!(matches!(route, Route::Plan(..)));
    let mut scratch = KernelScratch::with_capacity(n);
    let (mut want, mut got) = (block.clone(), block.clone());
    let p0 = getrf::getrf(&mut want, GetrfVariant::CV1, &mut scratch, 1e-12);
    let p1 = TimedKernels::new(false).getrf(route, &mut got, &mut scratch, 1e-12, 0.0);
    assert_eq!(p0, p1);
    assert_eq!(bits(&got), bits(&want));
}

//! Failure-path tests: the solver must reject unusable inputs with
//! errors, not wrong answers — and a distributed run that loses a message
//! must end in a structured stall error, never a hang.

use std::time::Duration;

use pangulu::comm::{DeliveryRecord, FaultPlan, ProcessGrid};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig, MissingDep};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::prelude::*;
use pangulu::sparse::ops::ensure_diagonal;
use pangulu::sparse::{gen, CooMatrix, CscMatrix};

#[test]
fn structurally_singular_matrix_is_rejected() {
    // Empty column: no transversal exists; MC64 must fail and the error
    // must surface through the pipeline.
    let mut coo = CooMatrix::new(3, 3);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(1, 1, 1.0).unwrap();
    coo.push(2, 1, 1.0).unwrap(); // column 2 stays empty
    let a = coo.to_csc();
    let msg = match Solver::factor(&a) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("structurally singular matrix factored"),
    };
    assert!(msg.contains("singular"), "unexpected error: {msg}");
}

#[test]
fn non_square_matrix_is_rejected() {
    let a = CscMatrix::zeros(3, 4);
    assert!(Solver::factor(&a).is_err());
}

#[test]
fn empty_matrix_factors_trivially() {
    let a = CscMatrix::zeros(0, 0);
    let solver = Solver::factor(&a).unwrap();
    assert_eq!(solver.solve(&[]).unwrap(), Vec::<f64>::new());
}

#[test]
fn one_by_one_matrix() {
    let a = CscMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![4.0]).unwrap();
    let solver = Solver::factor(&a).unwrap();
    let x = solver.solve(&[8.0]).unwrap();
    assert!((x[0] - 2.0).abs() < 1e-15);
    let (log_abs, sign) = solver.log_abs_det();
    assert!((log_abs - 4.0f64.ln()).abs() < 1e-12);
    assert_eq!(sign, 1);
}

#[test]
fn wrong_rhs_length_is_rejected() {
    let a = pangulu::sparse::gen::laplacian_2d(4, 4);
    let solver = Solver::factor(&a).unwrap();
    assert!(solver.solve(&[1.0; 3]).is_err());
    assert!(solver.solve_transpose(&[1.0; 99]).is_err());
}

#[test]
fn numerically_singular_with_floor_still_answers() {
    // Numerically singular but structurally fine: the static pivot floor
    // keeps the factorisation alive; refinement then reports a residual
    // the caller can inspect instead of silently trusting x.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(0, 1, 1.0).unwrap();
    coo.push(1, 0, 1.0).unwrap();
    coo.push(1, 1, 1.0).unwrap(); // rank 1
    let a = coo.to_csc();
    let solver = Solver::builder().pivot_floor_rel(1e-8).build(&a).unwrap();
    assert!(solver.stats().perturbed_pivots > 0);
    let (_, sign) = solver.log_abs_det();
    // Perturbed pivot keeps the determinant finite but tiny; sign defined.
    assert!(sign != 0);
    let (_x, resid, _) = solver.solve_refined(&a, &[1.0, 0.0], 1e-12, 3).unwrap();
    assert!(resid > 1e-6, "a singular system cannot be solved accurately: {resid}");
}

/// A single message lost mid-factorisation must surface as a
/// [`DistError`](pangulu::core::dist::DistError) naming the blocked rank
/// and the operand blocks it never received — within the stall timeout,
/// under a hard watchdog that turns any hang into a test failure. The
/// lost block is the only message on its edge, so it is known exactly,
/// and nothing below its elimination step can be missing: no block of an
/// earlier step depends on it.
#[test]
fn a_lost_message_mid_factorisation_yields_structured_error() {
    let a = ensure_diagonal(&gen::random_sparse(96, 0.10, 41)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    // At nb = 16 (6 × 6 blocks) one edge of the 2 × 2 grid carries a
    // single block.
    let bm0 = BlockMatrix::from_filled(&f, 16).unwrap();
    let tg = TaskGraph::build(&bm0);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    let owners = OwnerMap::balanced(&bm0, ProcessGrid::with_shape(2, 2), &tg);

    // Which blocks an edge carries does not depend on timing; pick an
    // edge that carries exactly one, past the first elimination step.
    let clean = factor_distributed_checked(
        &mut bm0.clone(),
        &tg,
        &owners,
        &sel,
        1e-12,
        &FactorConfig::default(),
    )
    .unwrap();
    let edge_len =
        |r: &DeliveryRecord| clean.sent.iter().filter(|s| (s.from, s.to) == (r.from, r.to)).count();
    let lost = *clean
        .sent
        .iter()
        .find(|r| r.from != r.to && r.bi.min(r.bj) > 0 && edge_len(r) == 1)
        .expect("the fixture has an edge that carries a single block");
    let lost_step = lost.bi.min(lost.bj);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let cfg = FactorConfig::default()
            .with_fault(FaultPlan::reliable(5).with_loss(lost.from, lost.to, 0))
            .with_stall_timeout(Duration::from_millis(500));
        let mut bm = bm0;
        let err = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 1e-12, &cfg)
            .expect_err("run must fail when a message is lost");
        done_tx.send(err).unwrap();
    });
    // Watchdog: a lost message must produce an error, never a hang.
    let err =
        done_rx.recv_timeout(Duration::from_secs(60)).expect("lossy run hung past the watchdog");
    handle.join().unwrap();
    assert!(!err.missing.is_empty(), "error must name the missing blocks: {err}");
    for m in &err.missing {
        let k = match *m {
            MissingDep::Diag { k, .. }
            | MissingDep::LOperand { k, .. }
            | MissingDep::UOperand { k, .. } => k,
        };
        assert!(k >= lost_step, "{m} precedes the lost block {lost:?} (step {lost_step})");
    }
    let text = err.to_string();
    assert!(text.contains("rank"), "error names the blocked rank: {text}");
    assert!(text.contains("missing"), "error names missing operands: {text}");
}

/// Runs `factor` on its own thread and returns the message it panicked
/// with, failing if it neither panics nor returns within `limit`.
fn panic_message_within(limit: Duration, factor: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(factor));
        let msg = out.err().map(|p| match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
        });
        let _ = tx.send(msg);
    });
    match rx.recv_timeout(limit) {
        Ok(Some(msg)) => msg,
        Ok(None) => panic!("the run finished without panicking"),
        Err(_) => panic!("no panic within {limit:?}: the run hangs"),
    }
}

/// A 9 × 9 matrix in 3 × 3 blocks whose one step-0 update, onto block
/// (1, 1), needs fill entries (4, 3) and (3, 4) that were never added
/// (the pattern is structurally symmetric, as tiling requires, but was
/// not symbolically filled). The baseline selector's `G_V1` runs `C_V2`'s
/// loop, which finds its target by binary search there and panics; every
/// other task waits on that update, directly or through GETRF(1), and
/// both ranks of any two-rank map own one of them.
fn unfilled_problem() -> (BlockMatrix, TaskGraph, KernelSelector) {
    let mut coo = CooMatrix::new(9, 9);
    for i in 0..9 {
        coo.push(i, i, 4.0).unwrap();
    }
    for (i, j) in [(4, 0), (3, 0), (5, 3), (6, 3)] {
        coo.push(i, j, 1.0).unwrap();
        coo.push(j, i, 1.0).unwrap();
    }
    let a = coo.to_csc();
    let bm = BlockMatrix::from_filled(&a, 3).unwrap();
    let tg = TaskGraph::build(&bm);
    (bm, tg, KernelSelector::baseline())
}

#[test]
fn a_panicking_task_ends_a_shared_run_with_its_own_panic() {
    use pangulu::core::seq::empty_plans;
    use pangulu::core::shared::factor_shared_planned;
    let (mut bm, tg, sel) = unfilled_problem();
    let msg = panic_message_within(Duration::from_secs(10), move || {
        let mut plans = empty_plans(&bm, &tg);
        factor_shared_planned(&mut bm, &tg, &sel, 0.0, 2, &mut plans);
    });
    assert!(msg.contains("SSSSM update target missing"), "not the task's own panic: {msg}");
}

#[test]
fn a_panicking_task_ends_a_distributed_run_with_its_own_panic() {
    let (mut bm, tg, sel) = unfilled_problem();
    let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(2));
    let msg = panic_message_within(Duration::from_secs(10), move || {
        let cfg = FactorConfig::default();
        let _ = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 0.0, &cfg);
    });
    assert!(msg.contains("SSSSM update target missing"), "not the task's own panic: {msg}");
}

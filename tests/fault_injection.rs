//! End-to-end fault-injection matrix: the distributed factorisation must
//! produce correct factors *and* a valid schedule trace under dozens of
//! seeded adversarial message schedules (delay, bounded reordering,
//! latency/bandwidth shaping) — and a lost message must surface as a
//! structured `DistError`, never a hang.

use std::time::{Duration, Instant};

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig, FactorRun, MissingDep};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::trace_check::validate_run;
use pangulu::core::trisolve::{backward_substitute, forward_substitute};
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::relative_residual;
use pangulu::sparse::CscMatrix;

struct Problem {
    a: CscMatrix,
    bm: BlockMatrix,
    tg: TaskGraph,
    sel: KernelSelector,
}

/// A well-conditioned test problem (2-D Laplacian: no pivoting needed).
fn problem() -> Problem {
    let a = gen::laplacian_2d(9, 8);
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, 9).unwrap();
    let tg = TaskGraph::build(&bm);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    Problem { a, bm, tg, sel }
}

/// Factors under the given config on the given grid; returns the factored
/// blocks and the run record.
fn factor(
    prob: &Problem,
    grid: ProcessGrid,
    cfg: &FactorConfig,
) -> Result<(BlockMatrix, OwnerMap, FactorRun), pangulu::core::dist::DistError> {
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, grid, &prob.tg);
    let run = factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, cfg)?;
    Ok((bm, owners, run))
}

/// Solves with the factored blocks and checks the residual against the
/// original matrix.
fn assert_residual(prob: &Problem, factored: &BlockMatrix, tag: &str) {
    let b = gen::test_rhs(prob.a.nrows(), 42);
    let mut x = b.clone();
    forward_substitute(factored, &mut x);
    backward_substitute(factored, &mut x);
    let r = relative_residual(&prob.a, &x, &b).unwrap();
    assert!(r < 1e-8, "{tag}: residual {r}");
}

/// Acceptance criterion: ≥20 distinct seeded fault plans on a 2×2 grid,
/// each completing with a small residual and a violation-free trace.
#[test]
fn twenty_adversarial_fault_plans_on_2x2_grid() {
    let prob = problem();
    for seed in 0..20u64 {
        let plan = FaultPlan::adversarial(seed);
        assert!(plan.is_active(), "adversarial plan {seed} must inject something");
        let cfg = FactorConfig::default().with_fault(plan).traced();
        let (factored, owners, run) = factor(&prob, ProcessGrid::with_shape(2, 2), &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        let report = validate_run(&prob.bm, &prob.tg, &owners, &run);
        assert!(
            report.is_valid(),
            "seed {seed}: {} trace violations, first: {}",
            report.violations.len(),
            report.violations[0]
        );
        assert_residual(&prob, &factored, &format!("seed {seed}"));
    }
}

/// Each fault class in isolation.
#[test]
fn single_fault_classes_keep_runs_valid() {
    let prob = problem();
    let plans = [
        ("delay", FaultPlan::reliable(11).with_delays(0.8, Duration::from_millis(2))),
        ("reorder", FaultPlan::reliable(12).with_reordering(4)),
        ("shaping", FaultPlan::reliable(14).with_shaping(Duration::from_micros(200), 5e7)),
    ];
    for (name, plan) in &plans {
        let cfg = FactorConfig::default().with_fault(plan.clone()).traced();
        let (factored, owners, run) = factor(&prob, ProcessGrid::with_shape(2, 2), &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = validate_run(&prob.bm, &prob.tg, &owners, &run);
        assert!(report.is_valid(), "{name}: {:?}", report.violations.first());
        assert_residual(&prob, &factored, name);
    }
}

/// The same fault seed must reproduce the exact same factors: fates are
/// drawn per-edge from the plan seed, and update order is deterministic.
#[test]
fn same_fault_seed_reproduces_identical_factors() {
    let prob = problem();
    let run_once = || {
        let plan = FaultPlan::adversarial(5);
        let cfg = FactorConfig::default().with_fault(plan);
        let (bm, _, _) = factor(&prob, ProcessGrid::with_shape(2, 2), &cfg).unwrap();
        bm.to_csc()
    };
    let f1 = run_once();
    let f2 = run_once();
    assert_eq!(f1.values(), f2.values(), "same seed must give bitwise-identical factors");
}

/// Acceptance criterion: a permanently lost message produces a
/// `DistError` naming the blocked rank and the missing block, well within
/// the stall timeout budget — never a hang.
#[test]
fn permanent_message_loss_yields_structured_error() {
    let prob = problem();
    // Lose the first send on an edge a fault-free run uses.
    let (_, _, clean) = factor(&prob, ProcessGrid::with_shape(2, 2), &FactorConfig::default())
        .expect("fault-free run");
    let edge = clean.sent.iter().find(|r| r.from != r.to).expect("a 2×2 run communicates");
    let plan = FaultPlan::reliable(31).with_loss(edge.from, edge.to, 0);
    let cfg =
        FactorConfig::default().with_fault(plan).with_stall_timeout(Duration::from_millis(400));
    let t0 = Instant::now();
    let err = factor(&prob, ProcessGrid::with_shape(2, 2), &cfg)
        .expect_err("a lost message must fail the run");
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}; must not hang");
    assert!(err.rank < 4, "error names a real rank");
    assert!(!err.missing.is_empty(), "error lists the missing operand blocks");
    assert!(err.remaining > 0, "a stalled rank still owes tasks");
    // Each missing operand gates an owned task of its step `k` that is
    // still waiting, so the stalled rank's lowest waiting step is at most
    // every such `k`.
    for m in &err.missing {
        let k = match *m {
            MissingDep::Diag { k, .. }
            | MissingDep::LOperand { k, .. }
            | MissingDep::UOperand { k, .. } => k,
        };
        assert!(err.step <= k, "step {} is past the missing operand {m}", err.step);
    }
    let text = err.to_string();
    assert!(text.contains("rank") && text.contains("missing"), "diagnostic text: {text}");
}

/// Faults on bigger grids: a 3×2 grid with moderate chaos still passes
/// validation (grid-shape coverage beyond the 2×2 acceptance minimum).
#[test]
fn adversarial_faults_on_3x2_grid() {
    let prob = problem();
    for seed in [100u64, 101, 102] {
        let plan = FaultPlan::adversarial(seed);
        let cfg = FactorConfig::default().with_fault(plan).traced();
        let (factored, owners, run) = factor(&prob, ProcessGrid::with_shape(3, 2), &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let report = validate_run(&prob.bm, &prob.tg, &owners, &run);
        report.assert_valid();
        assert_residual(&prob, &factored, &format!("3x2 seed {seed}"));
    }
}

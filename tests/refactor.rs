//! Numeric-only refactorisation: `Solver::refactor` must reuse the whole
//! cached analysis (reordering, symbolic fill, block layout, owner map,
//! executor schedules) and still produce factors **bitwise identical** to
//! a full pipeline run on the same values — across rank counts and
//! grids, and at the executor level also under adversarial
//! (lossless) fault plans. Structurally different inputs must be
//! rejected with `SparseError::PatternMismatch`, leaving the solver
//! untouched.

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{
    factor_distributed_cached, factor_distributed_checked, FactorConfig, NumericWorkspace,
};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::kernels::PlanStats;
use pangulu::prelude::*;
use pangulu::sparse::ops::relative_residual;
use pangulu::sparse::permute::{permute, scale};
use pangulu::sparse::{gen, CscMatrix, SparseError};
use std::time::Duration;

/// Every stored factor value as raw bits, per block — the comparison that
/// distinguishes "bitwise identical" from "numerically close".
fn factor_bits(bm: &BlockMatrix) -> Vec<Vec<u64>> {
    (0..bm.num_blocks())
        .map(|id| bm.block(id).values().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Same pattern, deterministically perturbed values: entry `k` is scaled
/// by `1 + 0.05 * h(k)` with `h(k)` a fixed hash in `[0, 1)` — modest
/// enough that the cached MC64 matching stays numerically sensible, and
/// never zero so the pattern is untouched.
fn perturb(a: &CscMatrix) -> CscMatrix {
    let values: Vec<f64> = a
        .values()
        .iter()
        .enumerate()
        .map(|(k, v)| v * (1.0 + 0.05 * ((k.wrapping_mul(2654435761) % 97) as f64 / 97.0)))
        .collect();
    CscMatrix::from_parts(a.nrows(), a.ncols(), a.col_ptr().to_vec(), a.row_idx().to_vec(), values)
        .unwrap()
}

fn opts_for(ranks: usize) -> SolverOptions {
    SolverOptions { ranks, ..SolverOptions::default() }
}

/// refactor(same values) must equal a fresh factorisation of the same
/// matrix bit-for-bit, in every deterministic execution mode, and the
/// solve vectors must match exactly too.
#[test]
fn refactor_same_values_is_bitwise_identical_to_fresh_factor() {
    let a = gen::circuit(300, 21);
    for (tag, opts) in [("seq", opts_for(1)), ("2x2", opts_for(4)), ("1x2", opts_for(2))] {
        let fresh = Solver::factor_with(&a, opts.clone()).unwrap();
        let mut solver = Solver::factor_with(&a, opts).unwrap();
        solver.refactor(&a).unwrap_or_else(|e| panic!("{tag}: refactor failed: {e}"));
        assert_eq!(
            factor_bits(solver.factored()),
            factor_bits(fresh.factored()),
            "{tag}: refactored factors differ from a fresh factorisation"
        );
        let b = gen::test_rhs(a.nrows(), 7);
        let xr = solver.solve(&b).unwrap();
        // Every mode solves with the same sweeps over the (identical)
        // factors, so the solution is a deterministic function of them.
        assert_eq!(
            xr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fresh.solve(&b).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{tag}: solve vectors differ"
        );
        assert!(relative_residual(&a, &xr, &b).unwrap() < 1e-8, "{tag}: refactored solve residual");
    }
}

/// A build loads its store straight from A through the reordering: its
/// factors equal, bit for bit, those of the reordered matrix
/// `reorder_for_lu` returns, tiled by `from_filled` and factored with the
/// pivot floor of that matrix's norm — in f64 and in f32.
#[test]
fn build_factors_equal_the_reordered_matrix_factored_by_hand() {
    for a in [gen::circuit(300, 21), gen::kkt(200, 90, 7)] {
        let solver = Solver::factor_with(&a, opts_for(4)).unwrap();
        let mixed = Solver::builder().ranks(4).precision(Precision::MixedF32).build(&a).unwrap();
        assert_eq!(mixed.effective_precision(), Precision::MixedF32, "no fallback");
        let m = pangulu::reorder::reorder_for_lu(&a, pangulu::reorder::FillReducing::Auto)
            .unwrap()
            .matrix;
        let fill = pangulu::symbolic::symbolic_fill(&m).unwrap();
        let nb = solver.stats().block_size;
        let bm = BlockMatrix::from_filled(&fill.filled_matrix(&m).unwrap(), nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(4), &tg);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let floor = 1e-12 * m.norm_max().max(1.0);
        let config = FactorConfig::default();
        let mut bm32 = bm.cast::<f32>();
        let mut bm = bm;
        factor_distributed_checked(&mut bm, &tg, &owners, &sel, floor, &config).unwrap();
        assert_eq!(factor_bits(solver.factored()), factor_bits(&bm));
        factor_distributed_checked(&mut bm32, &tg, &owners, &sel, floor, &config).unwrap();
        assert_eq!(factor_bits(mixed.factored()), factor_bits(&bm32.cast()));
    }
}

/// refactor(new values) must equal a manual pipeline rebuild that holds
/// the reordering fixed: scale + permute with the *cached* permutations
/// and scalings, then the numeric phase from scratch. (A fresh
/// `Solver::factor` is not the reference here — MC64 is value-dependent
/// and would pick a different matching for the new values.)
#[test]
fn refactor_new_values_matches_manual_rebuild_with_cached_reordering() {
    let a = gen::circuit(300, 21);
    let a2 = perturb(&a);
    let opts = opts_for(4);
    let mut solver = Solver::factor_with(&a, opts).unwrap();
    let nb = solver.stats().block_size;
    solver.refactor(&a2).unwrap();

    // Manual reference: the five-phase pipeline with phases 1-3 pinned to
    // the solver's cached analysis.
    let r = solver.ordering();
    let scaled = scale(&a2, &r.row_scale, &r.col_scale).unwrap();
    let permuted = permute(&scaled, &r.row_perm, &r.col_perm).unwrap();
    let fill = pangulu::symbolic::symbolic_fill(&permuted).unwrap();
    let filled = fill.filled_matrix(&permuted).unwrap();
    let mut bm = BlockMatrix::from_filled(&filled, nb).unwrap();
    let tg = TaskGraph::build(&bm);
    let owners = OwnerMap::balanced(&bm, ProcessGrid::new(4), &tg);
    let sel = KernelSelector::new(a2.nnz(), Thresholds::default());
    let pivot_floor = 1e-12 * permuted.norm_max().max(1.0);
    factor_distributed_checked(&mut bm, &tg, &owners, &sel, pivot_floor, &FactorConfig::default())
        .unwrap();

    assert_eq!(
        factor_bits(solver.factored()),
        factor_bits(&bm),
        "refactored factors differ from the manual rebuild"
    );
    // And the refactored solver actually solves the new system.
    let b = gen::test_rhs(a2.nrows(), 3);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a2, &x, &b).unwrap() < 1e-8);
}

/// Refactoring twice with the same values changes nothing, and
/// refactoring back to the original values restores the original factors
/// bit-for-bit.
#[test]
fn refactor_is_idempotent_and_reversible() {
    let a = gen::laplacian_2d(14, 13);
    let a2 = perturb(&a);
    let mut solver = Solver::factor_with(&a, opts_for(4)).unwrap();
    let original = factor_bits(solver.factored());

    solver.refactor(&a2).unwrap();
    let once = factor_bits(solver.factored());
    solver.refactor(&a2).unwrap();
    assert_eq!(once, factor_bits(solver.factored()), "second refactor changed the factors");

    solver.refactor(&a).unwrap();
    assert_eq!(
        original,
        factor_bits(solver.factored()),
        "refactoring back to the original values did not restore the original factors"
    );
}

/// Shared-memory mode reuses the analysis too, and, like every executor,
/// applies each target's updates one at a time in ascending `k`: the
/// counters show the skipped analysis, and refactoring back to the
/// original values restores the original factors bit for bit.
#[test]
fn refactor_shared_memory_mode_solves_and_skips_analysis() {
    let a = gen::circuit(250, 13);
    let opts = SolverOptions { shared_threads: Some(3), ..SolverOptions::default() };
    let mut solver = Solver::factor_with(&a, opts).unwrap();
    let original = factor_bits(solver.factored());
    let a2 = perturb(&a);
    solver.refactor(&a2).unwrap();
    let ph = solver.stats().phases;
    assert_eq!((ph.reorder_runs, ph.symbolic_runs, ph.preprocess_runs), (1, 1, 1));
    assert_eq!((ph.numeric_runs, ph.analysis_reuses), (2, 1));
    let b = gen::test_rhs(a2.nrows(), 5);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a2, &x, &b).unwrap() < 1e-8);
    solver.refactor(&a).unwrap();
    assert_eq!(original, factor_bits(solver.factored()), "shared refactor moved a bit");
}

/// Structurally different inputs are rejected with `PatternMismatch` and
/// the solver keeps serving its current factorisation.
#[test]
fn refactor_rejects_pattern_mismatch() {
    let a = gen::laplacian_2d(8, 8);
    let n = a.nrows();
    let mut solver = Solver::factor_with(&a, opts_for(4)).unwrap();
    let before = factor_bits(solver.factored());

    let expect_mismatch = |res: pangulu::sparse::Result<()>, tag: &str| match res {
        Err(SparseError::PatternMismatch(msg)) => {
            assert!(!msg.is_empty(), "{tag}: empty mismatch message")
        }
        other => panic!("{tag}: expected PatternMismatch, got {other:?}"),
    };

    // Different dimension.
    expect_mismatch(solver.refactor(&gen::laplacian_2d(8, 9)), "dimension");

    // One extra nonzero (nnz differs).
    let mut coo = pangulu::sparse::CooMatrix::new(n, n);
    for j in 0..n {
        let (rows, vals) = a.col(j);
        for (i, v) in rows.iter().zip(vals) {
            coo.push(*i, j, *v).unwrap();
        }
    }
    coo.push(0, n - 1, 0.5).unwrap();
    let extra = coo.to_csc();
    assert_eq!(extra.nnz(), a.nnz() + 1);
    expect_mismatch(solver.refactor(&extra), "extra nonzero");

    // Same nnz, different structure: move one off-diagonal entry.
    let mut row_idx = a.row_idx().to_vec();
    let j0 = (0..n)
        .find(|&j| {
            let (rows, _) = a.col(j);
            rows.len() > 1 && !rows.contains(&(n - 1))
        })
        .expect("a column with room to move an entry");
    let lo = a.col_ptr()[j0];
    let hi = a.col_ptr()[j0 + 1];
    row_idx[hi - 1] = n - 1; // still sorted: previous last row < n-1
    let moved =
        CscMatrix::from_parts(n, n, a.col_ptr().to_vec(), row_idx, a.values().to_vec()).unwrap();
    assert_eq!(moved.nnz(), a.nnz());
    assert!(hi > lo);
    expect_mismatch(solver.refactor(&moved), "moved entry");

    // The factorisation is untouched and still solves the original system.
    assert_eq!(before, factor_bits(solver.factored()), "rejected refactor mutated the factors");
    let b = gen::test_rhs(n, 9);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-10);
}

/// A mismatch names the first column that differs from the analysed
/// pattern, whether a row moved within a column (same nonzero count, same
/// column pointers) or an entry moved to another column.
#[test]
fn pattern_mismatch_names_the_first_differing_column() {
    let a = gen::laplacian_2d(8, 8);
    let n = a.nrows();
    let mut solver = Solver::factor(&a).unwrap();
    let mismatch = |solver: &mut Solver, m: &CscMatrix| match solver.refactor(m) {
        Err(SparseError::PatternMismatch(msg)) => msg,
        other => panic!("expected PatternMismatch, got {other:?}"),
    };

    // Column 5's last row moves to n - 1: same nnz, same column pointers.
    let j0 = 5;
    let (lo, hi) = (a.col_ptr()[j0], a.col_ptr()[j0 + 1]);
    let mut row_idx = a.row_idx().to_vec();
    let was = row_idx[hi - 1];
    assert!(was < n - 1 && !a.col(j0).0.contains(&(n - 1)));
    row_idx[hi - 1] = n - 1;
    let moved =
        CscMatrix::from_parts(n, n, a.col_ptr().to_vec(), row_idx, a.values().to_vec()).unwrap();
    assert_eq!(moved.nnz(), a.nnz());
    let msg = mismatch(&mut solver, &moved);
    let t = hi - 1 - lo;
    let want = format!("column {j0} differs from the analysed pattern: entry {t} is row {n_1} where it is row {was}", n_1 = n - 1);
    assert!(msg.starts_with(&want), "{msg}");

    // An off-diagonal entry of column 3 moves to (0, n - 1): column 3 is
    // the first whose pointers differ.
    let mut coo = pangulu::sparse::CooMatrix::new(n, n);
    let dropped = a.col(3).0.iter().copied().find(|&i| i != 3).unwrap();
    for (i, j, v) in a.iter().filter(|&(i, j, _)| (i, j) != (dropped, 3)) {
        coo.push(i, j, v).unwrap();
    }
    coo.push(0, n - 1, 1.0).unwrap();
    let shifted = coo.to_csc();
    assert_eq!(shifted.nnz(), a.nnz());
    let msg = mismatch(&mut solver, &shifted);
    let (had, has) = (a.col_nnz(3), a.col_nnz(3) - 1);
    assert!(
        msg.starts_with(&format!(
            "column 3 differs from the analysed pattern: {has} entries where it has {had}"
        )),
        "{msg}"
    );
}

/// The solver shares the caller's pattern instead of copying it: a clone
/// of A passes the pattern check by pointer, an equal pattern built
/// separately passes by comparison, and once the caller has dropped A the
/// solver still refactors and solves, bitwise as a fresh build does.
#[test]
fn the_analysed_pattern_is_shared_with_the_caller() {
    let a = gen::circuit(300, 21);
    let n = a.nrows();
    let mut solver = Solver::factor(&a).unwrap();
    assert!(a.shares_pattern(solver.plan().pattern()), "the plan copied A's pattern");
    assert_eq!((solver.plan().n(), solver.plan().nnz()), (n, a.nnz()));
    let built = factor_bits(solver.factored());

    let clone = a.clone();
    assert!(clone.shares_pattern(solver.plan().pattern()), "a clone takes the pointer path");
    solver.refactor(&clone).unwrap();
    assert_eq!(factor_bits(solver.factored()), built, "refactor of a clone");

    let (col_ptr, row_idx) = (a.col_ptr().to_vec(), a.row_idx().to_vec());
    let separate = CscMatrix::from_parts(n, n, col_ptr, row_idx, a.values().to_vec()).unwrap();
    assert!(!separate.shares_pattern(solver.plan().pattern()));
    solver.refactor(&separate).unwrap();
    assert_eq!(factor_bits(solver.factored()), built, "refactor of an equal pattern");

    drop((a, clone));
    let fresh = Solver::factor(&separate).unwrap();
    solver.refactor(&perturb(&separate)).unwrap();
    solver.refactor(&separate).unwrap();
    assert_eq!(factor_bits(solver.factored()), factor_bits(fresh.factored()), "after A dropped");
    let b = gen::test_rhs(n, 3);
    let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(solver.solve(&b).unwrap()), bits(fresh.solve(&b).unwrap()));
}

/// Executor-level workspace reuse: running the cached path twice on the
/// same workspace — under an adversarial (lossless delay/reorder) fault
/// plan — yields factors bitwise equal to the one-shot checked run, and
/// the second run serves every receive from the warm pattern cache.
#[test]
fn workspace_reuse_is_bitwise_stable_under_adversarial_faults() {
    let a = gen::laplacian_2d(9, 8);
    let filled = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm0 = BlockMatrix::from_filled(&filled, 9).unwrap();
    let tg = TaskGraph::build(&bm0);
    let owners = OwnerMap::balanced(&bm0, ProcessGrid::with_shape(2, 2), &tg);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());

    // Reference: a plain fault-free checked run.
    let mut reference = bm0.clone();
    factor_distributed_checked(&mut reference, &tg, &owners, &sel, 1e-12, &FactorConfig::default())
        .unwrap();
    let reference_bits = factor_bits(&reference);

    for seed in [1u64, 2] {
        let mut ws = NumericWorkspace::new(&bm0, &tg, &owners);
        let mut hits_first = 0;
        for round in 0..2 {
            let cfg = FactorConfig::default().with_fault(FaultPlan::adversarial(seed));
            let mut bm = bm0.clone();
            let run = factor_distributed_cached(&mut bm, &tg, &owners, &sel, 1e-12, &cfg, &mut ws)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
            assert_eq!(
                factor_bits(&bm),
                reference_bits,
                "seed {seed} round {round}: factors drifted from the fault-free reference"
            );
            let hits = run.report.total_mem().pattern_cache_hits;
            if round == 0 {
                hits_first = hits;
            } else {
                assert!(
                    hits >= hits_first,
                    "seed {seed}: warm workspace lost cache hits ({hits} < {hits_first})"
                );
            }
        }
    }
}

/// A stalled run leaves `bm` partly factored but the workspace reusable:
/// after a warm run and a run that loses a message, a fresh copy of the
/// matrix factored fault-free on the same workspace gives the reference
/// bits.
#[test]
fn stalled_run_leaves_the_workspace_reusable() {
    let a = gen::laplacian_2d(9, 8);
    let filled = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm0 = BlockMatrix::from_filled(&filled, 9).unwrap();
    let tg = TaskGraph::build(&bm0);
    let owners = OwnerMap::balanced(&bm0, ProcessGrid::with_shape(2, 2), &tg);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    let clean = FactorConfig::default();
    let mut reference = bm0.clone();
    let run =
        factor_distributed_checked(&mut reference, &tg, &owners, &sel, 1e-12, &clean).unwrap();
    let edge = run.sent.iter().find(|r| r.from != r.to).expect("a 2 × 2 run communicates");

    let mut ws = NumericWorkspace::new(&bm0, &tg, &owners);
    factor_distributed_cached(&mut bm0.clone(), &tg, &owners, &sel, 1e-12, &clean, &mut ws)
        .unwrap();
    let lossy = FactorConfig::default()
        .with_fault(FaultPlan::reliable(3).with_loss(edge.from, edge.to, 0))
        .with_stall_timeout(Duration::from_millis(200));
    let mut stalled = bm0.clone();
    let err = factor_distributed_cached(&mut stalled, &tg, &owners, &sel, 1e-12, &lossy, &mut ws)
        .expect_err("a run that loses a message stalls");
    assert!(!err.missing.is_empty(), "{err}");
    assert_ne!(factor_bits(&stalled), factor_bits(&bm0), "the stalled run factored in place");

    let mut bm = bm0.clone();
    factor_distributed_cached(&mut bm, &tg, &owners, &sel, 1e-12, &clean, &mut ws).unwrap();
    assert_eq!(factor_bits(&bm), factor_bits(&reference), "run after a stall drifted");
}

/// Planned kernel calls of the solver's latest numeric run (multi-rank).
fn planned_calls(solver: &Solver) -> u64 {
    solver.stats().report.as_ref().expect("multi-rank report").total_mem().planned_calls
}

/// `build()` leaves no kernel plan behind and replayed none.
fn assert_no_plans_yet(solver: &Solver, tag: &str) {
    assert_eq!(solver.kernel_plan_stats(), PlanStats::default(), "{tag}: plans exist");
    assert_eq!(planned_calls(solver), 0, "{tag}: the run replayed a plan");
}

/// Kernel plans live in the cached analysis and are built on second use:
/// the first factorisation builds and replays none (a caller who factors
/// once never pays for them), the first refactorisation builds them
/// (each rank for the tasks it owns, before any task runs), and from the
/// second on the cumulative
/// plan-build counters (`plan_bytes`, `plan_build_ns`) stay exactly flat
/// — while the analyze/factor phase split is unchanged throughout.
#[test]
fn kernel_plan_reuse_keeps_build_counters_flat() {
    let a = gen::circuit(300, 21);
    let mut solver = Solver::factor_with(&a, opts_for(4)).unwrap();
    assert_no_plans_yet(&solver, "after build()");
    let first_phases = solver.stats().phases;

    solver.refactor(&perturb(&a)).unwrap();
    let built = solver.kernel_plan_stats();
    assert!(built.bytes > 0 && built.builds > 0, "the first refactor built no plans");
    assert!(planned_calls(&solver) > 0, "the first refactor replayed no plan");

    for rep in 2..=4 {
        solver.refactor(&perturb(&a)).unwrap();
        let s = solver.kernel_plan_stats();
        assert_eq!(s.bytes, built.bytes, "rep {rep}: plan arena grew on reuse");
        assert_eq!(s.build_ns, built.build_ns, "rep {rep}: plans were rebuilt on reuse");
        let mem = solver.stats().report.as_ref().unwrap().total_mem();
        assert!(mem.planned_calls > 0, "rep {rep}: steady state made no planned calls");
        assert!(mem.index_searches_avoided > 0, "rep {rep}: plans avoided no searches");
    }
    let steady = solver.stats().phases.since(&first_phases);
    assert_eq!((steady.reorder_runs, steady.symbolic_runs, steady.preprocess_runs), (0, 0, 0));
    assert_eq!((steady.numeric_runs, steady.analysis_reuses), (4, 4));
}

/// The executors called directly follow the solver's plan policy: a
/// fresh pool's first run builds no plan, and its second builds exactly
/// the pool a `Solver`'s first refactor holds — sequential, shared at two
/// threads and distributed on a 2 × 2 grid, every run keeping the
/// solver's factor bits.
#[test]
fn direct_executor_calls_plan_from_their_second_run_like_the_solver() {
    use pangulu::core::seq::{empty_plans, factor_sequential_planned};
    use pangulu::core::shared::factor_shared_planned;
    enum Exec {
        Sequential,
        Shared2,
        Grid2x2,
    }
    let a = gen::circuit(300, 21);
    let m =
        pangulu::reorder::reorder_for_lu(&a, pangulu::reorder::FillReducing::Auto).unwrap().matrix;
    let filled = pangulu::symbolic::symbolic_fill(&m).unwrap().filled_matrix(&m).unwrap();
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    let floor = 1e-12 * m.norm_max().max(1.0);
    for (tag, exec, builder) in [
        ("sequential", Exec::Sequential, Solver::builder()),
        ("shared x2", Exec::Shared2, Solver::builder().shared_threads(2)),
        ("2x2", Exec::Grid2x2, Solver::builder().ranks(4)),
    ] {
        let mut solver = builder.build(&a).unwrap();
        let want = factor_bits(solver.factored());
        solver.refactor(&a).unwrap();
        let pool = solver.kernel_plan_stats();
        assert!(pool.builds > 0, "{tag}: the solver's first refactor built no plan");

        let bm0 = BlockMatrix::from_filled(&filled, solver.stats().block_size).unwrap();
        let tg = TaskGraph::build(&bm0);
        let owners = OwnerMap::balanced(&bm0, ProcessGrid::new(4), &tg);
        let mut plans = empty_plans(&bm0, &tg);
        let mut ws = NumericWorkspace::new(&bm0, &tg, &owners);
        for run in 0..3 {
            let mut bm = bm0.clone();
            let stats = match exec {
                Exec::Sequential => {
                    factor_sequential_planned(&mut bm, &tg, &sel, floor, &mut plans);
                    plans.stats()
                }
                Exec::Shared2 => {
                    factor_shared_planned(&mut bm, &tg, &sel, floor, 2, &mut plans);
                    plans.stats()
                }
                Exec::Grid2x2 => {
                    let cfg = FactorConfig::default();
                    factor_distributed_cached(&mut bm, &tg, &owners, &sel, floor, &cfg, &mut ws)
                        .unwrap();
                    ws.plan_stats()
                }
            };
            assert_eq!(factor_bits(&bm), want, "{tag} run {run}: factor bits moved");
            let expect = if run == 0 { (0, 0) } else { (pool.bytes, pool.builds) };
            assert_eq!((stats.bytes, stats.builds), expect, "{tag} run {run}: plan pool");
        }
    }
}

/// A rejected refactor (pattern mismatch) must leave the plan state as
/// untouched as the factors — "no plans yet" stays "no plans yet" (the
/// rejection is not the run that builds them), built plans keep their
/// bytes and are not rebuilt — and the next valid refactorisation is
/// served as if the rejection never happened.
#[test]
fn rejected_refactor_leaves_plans_intact() {
    let a = gen::laplacian_2d(8, 8);
    let mut solver = Solver::factor_with(&a, opts_for(4)).unwrap();
    let bits = factor_bits(solver.factored());
    let reject = |solver: &mut Solver| match solver.refactor(&gen::laplacian_2d(8, 9)) {
        Err(SparseError::PatternMismatch(_)) => {}
        other => panic!("expected PatternMismatch, got {other:?}"),
    };

    reject(&mut solver);
    assert_no_plans_yet(&solver, "after a rejected first refactor");
    assert_eq!(bits, factor_bits(solver.factored()), "rejected refactor mutated the factors");

    // The first *valid* refactorisation is still the one that builds.
    solver.refactor(&perturb(&a)).unwrap();
    let built = solver.kernel_plan_stats();
    assert!(built.bytes > 0, "the first valid refactor built no plans");

    reject(&mut solver);
    let after = solver.kernel_plan_stats();
    assert_eq!((after.bytes, after.build_ns), (built.bytes, built.build_ns));

    solver.refactor(&a).unwrap();
    let s = solver.kernel_plan_stats();
    assert_eq!(
        (s.bytes, s.build_ns),
        (built.bytes, built.build_ns),
        "valid refactor after a rejection rebuilt plans"
    );
    assert_eq!(bits, factor_bits(solver.factored()), "refactor(a) != factor(a)");
}

/// The phase counters record exactly which phases ran: the first
/// factorisation runs all four, every refactorisation adds one numeric
/// run and one analysis reuse.
#[test]
fn phase_counters_track_cached_vs_recomputed_phases() {
    let a = gen::laplacian_2d(10, 10);
    let mut solver = Solver::factor_with(&a, opts_for(4)).unwrap();
    let first = solver.stats().phases;
    assert_eq!(
        (
            first.reorder_runs,
            first.symbolic_runs,
            first.preprocess_runs,
            first.numeric_runs,
            first.analysis_reuses
        ),
        (1, 1, 1, 1, 0)
    );

    solver.refactor(&a).unwrap();
    solver.refactor(&perturb(&a)).unwrap();
    let ph = solver.stats().phases;
    assert_eq!(
        (
            ph.reorder_runs,
            ph.symbolic_runs,
            ph.preprocess_runs,
            ph.numeric_runs,
            ph.analysis_reuses
        ),
        (1, 1, 1, 3, 2)
    );
    let steady = ph.since(&first);
    assert_eq!((steady.reorder_runs, steady.symbolic_runs, steady.preprocess_runs), (0, 0, 0));
    assert_eq!((steady.numeric_runs, steady.analysis_reuses), (2, 2));
}

/// `D_V1` calls `[GETRF, GESSM, TSTRF, SSSSM]` of the solver's latest
/// numeric run.
fn tile_calls(solver: &Solver) -> [u64; 4] {
    let tally = solver.stats().report.as_ref().expect("multi-rank report").total_kernels();
    ["GETRF", "GESSM", "TSTRF", "SSSSM"].map(|class| {
        tally.entries().find(|(c, v, _)| *c == class && *v == "D_V1").map_or(0, |(.., s)| s.calls)
    })
}

/// Steady state with the dense-tile lane active. The first factorisation
/// runs with the planned gates closed and the lane on, so the lane also
/// takes the full panels a plan would have claimed (precedence plan →
/// tile → tree); every refactorisation routes the same tasks through the
/// lane as the one before. Once the first refactorisation has built the
/// plans of the other tasks nothing more is built (the lane has no plans;
/// its expansion tiles live in the ranks' cached kernel scratch and are
/// reused), and the factors stay bitwise equal to a fresh factorisation
/// of the same values.
#[test]
fn dense_tile_lane_steady_state_builds_nothing_new() {
    let a = gen::kkt(400, 180, 7);
    // Blocks of 36 put the filled trailing panels and updates past the
    // planned gates (1 296 nnz, 93 312 FLOPs).
    let opts = SolverOptions { block_size: Some(36), ..opts_for(4) };
    let mut solver = Solver::factor_with(&a, opts).unwrap();
    assert_no_plans_yet(&solver, "after build()");
    let first_tile = tile_calls(&solver);
    assert!(first_tile.iter().all(|&c| c >= 1), "a class never took the tile lane: {first_tile:?}");
    let original = factor_bits(solver.factored());

    let a2 = perturb(&a);
    let (mut built, mut steady_tile) = (PlanStats::default(), [0; 4]);
    for rep in 1..=3 {
        solver.refactor(if rep % 2 == 1 { &a2 } else { &a }).unwrap();
        if rep == 2 {
            assert_eq!(original, factor_bits(solver.factored()), "refactor(a) != factor(a)");
        }
        let s = solver.kernel_plan_stats();
        if rep == 1 {
            assert!(s.bytes > 0, "the first refactor built no plans for the sparse tasks");
            (built, steady_tile) = (s, tile_calls(&solver));
            // A full diagonal block or an SSSSM onto a full target never
            // had a plan to lose the task to.
            assert!(steady_tile[1..3]
                .iter()
                .zip(&first_tile[1..3])
                .all(|(s, f)| 1 <= *s && s <= f));
            assert_eq!((steady_tile[0], steady_tile[3]), (first_tile[0], first_tile[3]));
        }
        assert_eq!(s.bytes, built.bytes, "rep {rep}: the lane grew the plan arena");
        assert_eq!(s.build_ns, built.build_ns, "rep {rep}: something was rebuilt");
        assert_eq!(tile_calls(&solver), steady_tile, "rep {rep}: tile routing drifted");
        let report = solver.stats().report.as_ref().unwrap();
        assert_eq!(report.observed_flops(), report.predicted_flops, "rep {rep}: model FLOPs");
    }
    // Rep 3 ran on `a2`: equal to a manual rebuild is covered above; the
    // steady-state factors must at least solve their system.
    let b = gen::test_rhs(a.nrows(), 5);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a2, &x, &b).unwrap() < 1e-9);
}

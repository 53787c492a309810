//! Numeric-only refactorisation: `Solver::refactor` must reuse the whole
//! cached analysis (reordering, symbolic fill, block layout, owner map,
//! executor schedules) and still produce factors **bitwise identical** to
//! a full pipeline run on the same values — across rank counts and
//! schedule modes, and at the executor level also under adversarial
//! (lossless) fault plans. Structurally different inputs must be
//! rejected with `SparseError::PatternMismatch`, leaving the solver
//! untouched.

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{
    factor_distributed_cached, factor_distributed_checked, FactorConfig, NumericWorkspace,
    ScheduleMode,
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

fn opts_for(ranks: usize, schedule: ScheduleMode) -> SolverOptions {
    SolverOptions { ranks, schedule, ..SolverOptions::default() }
}

fn opts_ranks(tag: &str) -> usize {
    if tag == "seq" {
        1
    } else {
        2
    }
}

/// refactor(same values) must equal a fresh factorisation of the same
/// matrix bit-for-bit, in every deterministic execution mode, and the
/// solve vectors must match exactly too.
#[test]
fn refactor_same_values_is_bitwise_identical_to_fresh_factor() {
    let a = gen::circuit(300, 21);
    for (tag, opts) in [
        ("seq", opts_for(1, ScheduleMode::SyncFree)),
        ("sync-free 2x2", opts_for(4, ScheduleMode::SyncFree)),
        ("level-set 1x2", opts_for(2, ScheduleMode::LevelSet)),
    ] {
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
        if opts_ranks(tag) == 1 {
            // The sequential substitution is a deterministic function of
            // the (identical) factors; the distributed solve reduces
            // across ranks in racy order, so it gets a residual check.
            assert_eq!(xr, fresh.solve(&b).unwrap(), "{tag}: solve vectors differ");
        }
        assert!(relative_residual(&a, &xr, &b).unwrap() < 1e-8, "{tag}: refactored solve residual");
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
    let opts = opts_for(4, ScheduleMode::SyncFree);
    let mut solver = Solver::factor_with(&a, opts).unwrap();
    let nb = solver.stats().block_size;
    solver.refactor(&a2).unwrap();

    // Manual reference: the five-phase pipeline with phases 1-3 pinned to
    // the solver's cached analysis.
    let r = solver.reordering();
    let scaled = scale(&a2, &r.row_scale, &r.col_scale).unwrap();
    let permuted = permute(&scaled, &r.row_perm, &r.col_perm).unwrap();
    let fill = pangulu::symbolic::symbolic_fill(&permuted).unwrap();
    let filled = fill.filled_matrix(&permuted).unwrap();
    let mut bm = BlockMatrix::from_filled(&filled, nb).unwrap();
    let tg = TaskGraph::build(&bm);
    let owners = OwnerMap::balanced(&bm, ProcessGrid::new(4), &tg);
    let sel = KernelSelector::new(a2.nnz(), Thresholds::default());
    let pivot_floor = 1e-12 * permuted.norm_max().max(1.0);
    factor_distributed_checked(
        &mut bm,
        &tg,
        &owners,
        &sel,
        pivot_floor,
        &FactorConfig::with_mode(ScheduleMode::SyncFree),
    )
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
    let mut solver = Solver::factor_with(&a, opts_for(4, ScheduleMode::SyncFree)).unwrap();
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

/// Shared-memory mode reuses the analysis too. Its executor applies
/// same-target updates in arrival order, so bitwise reproducibility is
/// not guaranteed — the contract here is the counters and the solution.
#[test]
fn refactor_shared_memory_mode_solves_and_skips_analysis() {
    let a = gen::circuit(250, 13);
    let opts = SolverOptions { shared_threads: Some(3), ..SolverOptions::default() };
    let mut solver = Solver::factor_with(&a, opts).unwrap();
    let a2 = perturb(&a);
    solver.refactor(&a2).unwrap();
    let ph = solver.stats().phases;
    assert_eq!((ph.reorder_runs, ph.symbolic_runs, ph.preprocess_runs), (1, 1, 1));
    assert_eq!((ph.numeric_runs, ph.analysis_reuses), (2, 1));
    let b = gen::test_rhs(a2.nrows(), 5);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a2, &x, &b).unwrap() < 1e-8);
}

/// Structurally different inputs are rejected with `PatternMismatch` and
/// the solver keeps serving its current factorisation.
#[test]
fn refactor_rejects_pattern_mismatch() {
    let a = gen::laplacian_2d(8, 8);
    let n = a.nrows();
    let mut solver = Solver::factor_with(&a, opts_for(4, ScheduleMode::SyncFree)).unwrap();
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
    factor_distributed_checked(
        &mut reference,
        &tg,
        &owners,
        &sel,
        1e-12,
        &FactorConfig::with_mode(ScheduleMode::SyncFree),
    )
    .unwrap();
    let reference_bits = factor_bits(&reference);

    for seed in [1u64, 2] {
        let mut ws = NumericWorkspace::new(&bm0, &tg, &owners);
        let mut hits_first = 0;
        for round in 0..2 {
            let cfg = FactorConfig::with_mode(ScheduleMode::SyncFree)
                .with_fault(FaultPlan::adversarial(seed));
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
/// (lazily, per executed task), and from the second on the cumulative
/// plan-build counters (`plan_bytes`, `plan_build_ns`) stay exactly flat
/// — while the analyze/factor phase split is unchanged throughout.
#[test]
fn kernel_plan_reuse_keeps_build_counters_flat() {
    let a = gen::circuit(300, 21);
    let mut solver = Solver::factor_with(&a, opts_for(4, ScheduleMode::SyncFree)).unwrap();
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

/// A rejected refactor (pattern mismatch) must leave the plan state as
/// untouched as the factors — "no plans yet" stays "no plans yet" (the
/// rejection is not the run that builds them), built plans keep their
/// bytes and are not rebuilt — and the next valid refactorisation is
/// served as if the rejection never happened.
#[test]
fn rejected_refactor_leaves_plans_intact() {
    let a = gen::laplacian_2d(8, 8);
    let mut solver = Solver::factor_with(&a, opts_for(4, ScheduleMode::SyncFree)).unwrap();
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

/// The critical-path priorities are part of the cached analysis: the
/// exact same allocation (`Arc::ptr_eq`) serves every refactorisation
/// rep, survives `PatternMismatch` rejections untouched, and — for
/// multi-rank solvers — is shared with the executor workspace rather
/// than recomputed per factorisation.
#[test]
fn refactor_reuses_cached_priorities_across_reps_and_rejections() {
    let a = gen::circuit(300, 21);
    for (tag, opts) in [
        ("seq", opts_for(1, ScheduleMode::SyncFree)),
        ("sync-free 2x2", opts_for(4, ScheduleMode::SyncFree)),
    ] {
        let mut solver = Solver::factor_with(&a, opts).unwrap();
        let first = solver.plan().priorities().clone();
        assert!(
            !first.panel.is_empty() && !first.ssssm.is_empty(),
            "{tag}: analysis produced no priorities"
        );

        for rep in 1..=3 {
            solver.refactor(&perturb(&a)).unwrap();
            assert!(
                std::sync::Arc::ptr_eq(&first, solver.plan().priorities()),
                "{tag} rep {rep}: refactor replaced the cached priorities"
            );
        }

        match solver.refactor(&gen::laplacian_2d(8, 9)) {
            Err(SparseError::PatternMismatch(_)) => {}
            other => panic!("{tag}: expected PatternMismatch, got {other:?}"),
        }
        assert!(
            std::sync::Arc::ptr_eq(&first, solver.plan().priorities()),
            "{tag}: a rejected refactor touched the cached priorities"
        );

        solver.refactor(&a).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&first, solver.plan().priorities()),
            "{tag}: the post-rejection refactor rebuilt the priorities"
        );
    }
}

/// The phase counters record exactly which phases ran: the first
/// factorisation runs all four, every refactorisation adds one numeric
/// run and one analysis reuse.
#[test]
fn phase_counters_track_cached_vs_recomputed_phases() {
    let a = gen::laplacian_2d(10, 10);
    let mut solver = Solver::factor_with(&a, opts_for(4, ScheduleMode::SyncFree)).unwrap();
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

/// `D_V1` calls `[GESSM, TSTRF, SSSSM]` of the solver's latest numeric run.
fn tile_calls(solver: &Solver) -> [u64; 3] {
    let tally = solver.stats().report.as_ref().expect("multi-rank report").total_kernels();
    ["GESSM", "TSTRF", "SSSSM"].map(|class| {
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
    let opts = SolverOptions { block_size: Some(36), ..opts_for(4, ScheduleMode::SyncFree) };
    let mut solver = Solver::factor_with(&a, opts).unwrap();
    assert_no_plans_yet(&solver, "after build()");
    let first_tile = tile_calls(&solver);
    assert!(first_tile.iter().all(|&c| c >= 1), "a class never took the tile lane: {first_tile:?}");
    let original = factor_bits(solver.factored());

    let a2 = perturb(&a);
    let (mut built, mut steady_tile) = (PlanStats::default(), [0; 3]);
    for rep in 1..=3 {
        solver.refactor(if rep % 2 == 1 { &a2 } else { &a }).unwrap();
        if rep == 2 {
            assert_eq!(original, factor_bits(solver.factored()), "refactor(a) != factor(a)");
        }
        let s = solver.kernel_plan_stats();
        if rep == 1 {
            assert!(s.bytes > 0, "the first refactor built no plans for the sparse tasks");
            (built, steady_tile) = (s, tile_calls(&solver));
            // SSSSM onto a full target never had a plan to lose the task to.
            assert!(steady_tile[..2].iter().zip(&first_tile).all(|(s, f)| 1 <= *s && s <= f));
            assert_eq!(steady_tile[2], first_tile[2]);
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

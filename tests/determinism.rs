//! Determinism regression guard: the distributed factorisation applies
//! every block's SSSSM updates in ascending elimination-step order no
//! matter when their operands arrive, so the computed L/U factors are
//! *bitwise* identical across repeated runs — per grid shape and
//! scheduling mode — and the residual stays small everywhere in the
//! {1×1, 1×2, 2×2, 3×2} × {SyncFree, LevelSet} matrix.

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{
    factor_distributed_checked, FactorConfig, FactorRun, ScheduleMode, SchedulePolicy,
};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::trisolve::{backward_substitute, forward_substitute};
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::{ensure_diagonal, relative_residual};
use pangulu::sparse::CscMatrix;

fn grids() -> Vec<(usize, usize)> {
    vec![(1, 1), (1, 2), (2, 2), (3, 2)]
}

struct Problem {
    a: CscMatrix,
    bm: BlockMatrix,
    tg: TaskGraph,
    sel: KernelSelector,
}

fn problem(seed: u64) -> Problem {
    let a = ensure_diagonal(&gen::random_sparse(72, 0.11, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, 9).unwrap();
    let tg = TaskGraph::build(&bm);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    Problem { a, bm, tg, sel }
}

fn factor_once(prob: &Problem, pr: usize, pc: usize, mode: ScheduleMode) -> CscMatrix {
    factor_with_config(prob, pr, pc, &FactorConfig::with_mode(mode))
}

fn factor_with_config(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> CscMatrix {
    factor_run(prob, pr, pc, cfg).0
}

fn factor_run(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> (CscMatrix, FactorRun) {
    factor_run_with(prob, &prob.sel, pr, pc, cfg)
}

fn factor_run_with(
    prob: &Problem,
    sel: &KernelSelector,
    pr: usize,
    pc: usize,
    cfg: &FactorConfig,
) -> (CscMatrix, FactorRun) {
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
    let run = factor_distributed_checked(&mut bm, &prob.tg, &owners, sel, 1e-12, cfg)
        .unwrap_or_else(|e| panic!("{pr}x{pc} {:?}: {e}", cfg.mode));
    (bm.to_csc(), run)
}

/// The unplanned arm: the same run behind a selector whose planned gates
/// are closed, so every task takes its tree variant — and, asserted
/// here, no plan is ever built or replayed.
fn factor_unplanned(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> CscMatrix {
    let closed = KernelSelector::new(prob.a.nnz(), Thresholds::unplanned());
    let (f, run) = factor_run_with(prob, &closed, pr, pc, cfg);
    let mem = run.report.total_mem();
    assert_eq!(
        (mem.planned_calls, mem.plan_bytes),
        (0, 0),
        "{pr}x{pc} {:?}: closed gates still planned",
        cfg.mode
    );
    f
}

const POLICIES: [SchedulePolicy; 3] =
    [SchedulePolicy::Fifo, SchedulePolicy::Priority, SchedulePolicy::PriorityStealing];

/// Same seed, same grid, same mode → the factors are bitwise identical
/// run to run, despite nondeterministic thread interleaving.
#[test]
fn repeated_runs_are_bitwise_identical() {
    let prob = problem(1);
    for (pr, pc) in grids() {
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            let f1 = factor_once(&prob, pr, pc, mode);
            let f2 = factor_once(&prob, pr, pc, mode);
            assert_eq!(
                f1.values(),
                f2.values(),
                "{pr}x{pc} {mode:?}: factors changed between identical runs"
            );
        }
    }
}

/// The deterministic (ascending-k) update order is also grid- and
/// mode-independent, so every cell of the matrix computes the *same*
/// factors — compared bitwise against the 1×1 SyncFree reference.
#[test]
fn factors_agree_across_grids_and_modes() {
    let prob = problem(2);
    let reference = factor_once(&prob, 1, 1, ScheduleMode::SyncFree);
    for (pr, pc) in grids() {
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            let f = factor_once(&prob, pr, pc, mode);
            assert_eq!(
                reference.values(),
                f.values(),
                "{pr}x{pc} {mode:?}: factors differ from the 1x1 reference"
            );
        }
    }
}

/// Kernel plans are bitwise-neutral: with plans disabled, every grid ×
/// mode cell still computes the exact factors of the planned default —
/// including the sequential reference (the planned sequential sweep, the
/// 1×1 distributed run, and the unplanned runs all agree bitwise).
#[test]
fn planned_and_unplanned_factors_are_bitwise_identical() {
    let prob = problem(5);

    // Sequential planned sweep as the schedule-free reference.
    let mut seq_bm = prob.bm.clone();
    let mut plans = pangulu::core::seq::empty_plans(&seq_bm, &prob.tg);
    pangulu::core::seq::factor_sequential_planned(
        &mut seq_bm,
        &prob.tg,
        &prob.sel,
        1e-12,
        &mut plans,
    );
    let reference = seq_bm.to_csc();

    for (pr, pc) in grids() {
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            let planned = factor_with_config(&prob, pr, pc, &FactorConfig::with_mode(mode));
            let unplanned = factor_unplanned(&prob, pr, pc, &FactorConfig::with_mode(mode));
            assert_eq!(
                planned.values(),
                unplanned.values(),
                "{pr}x{pc} {mode:?}: plans changed the factors"
            );
            assert_eq!(
                reference.values(),
                planned.values(),
                "{pr}x{pc} {mode:?}: planned factors differ from the sequential reference"
            );
        }
    }
}

/// Plans stay bitwise-neutral when an adversarial fault plan perturbs
/// message timing, ordering, and delivery.
#[test]
fn planned_factors_survive_adversarial_fault_plans() {
    let prob = problem(6);
    let reference = factor_once(&prob, 2, 2, ScheduleMode::SyncFree);
    for seed in [7u64, 8, 9] {
        let fault = FaultPlan::adversarial(seed);
        let planned = factor_with_config(
            &prob,
            2,
            2,
            &FactorConfig::with_mode(ScheduleMode::SyncFree).with_fault(fault.clone()),
        );
        let unplanned = factor_unplanned(
            &prob,
            2,
            2,
            &FactorConfig::with_mode(ScheduleMode::SyncFree).with_fault(fault),
        );
        assert_eq!(
            planned.values(),
            unplanned.values(),
            "fault seed {seed}: plans changed the factors under faults"
        );
        assert_eq!(
            reference.values(),
            planned.values(),
            "fault seed {seed}: faulted planned factors differ from the fault-free run"
        );
    }
}

/// Run-segmented plan replay (slice-level axpy loops over maximal
/// contiguous runs) and the unplanned walk compute the same factors
/// across grids × policies — and under adversarial fault plans. Runs
/// partition each index list left to right, so the per-element order and
/// arithmetic never change; this pins that.
#[test]
fn run_planned_factors_are_bitwise_identical_to_unplanned() {
    let prob = problem(12);
    let reference = factor_once(&prob, 1, 1, ScheduleMode::SyncFree);
    for (pr, pc) in grids() {
        for policy in POLICIES {
            let cfg = FactorConfig::with_mode(ScheduleMode::SyncFree).with_policy(policy);
            let run_planned = factor_with_config(&prob, pr, pc, &cfg);
            let unplanned = factor_unplanned(&prob, pr, pc, &cfg);
            assert_eq!(
                run_planned.values(),
                unplanned.values(),
                "{pr}x{pc} {policy:?}: run-segmented replay diverged from unplanned"
            );
            assert_eq!(
                reference.values(),
                run_planned.values(),
                "{pr}x{pc} {policy:?}: run-segmented factors differ from the 1x1 reference"
            );
        }
    }
    for seed in [14u64, 15] {
        let cfg = FactorConfig::with_mode(ScheduleMode::SyncFree)
            .with_fault(FaultPlan::adversarial(seed));
        let f = factor_with_config(&prob, 2, 2, &cfg);
        assert_eq!(
            reference.values(),
            f.values(),
            "fault seed {seed}: faulted factors differ from the reference"
        );
    }
}

/// The scheduling policy changes only the order ready work is popped,
/// never the arithmetic: Fifo, Priority and PriorityStealing compute
/// factors bitwise equal to the 1×1 SyncFree reference on every grid.
#[test]
fn factors_agree_across_scheduling_policies() {
    let prob = problem(7);
    let reference = factor_once(&prob, 1, 1, ScheduleMode::SyncFree);
    for (pr, pc) in grids() {
        for policy in POLICIES {
            let f = factor_with_config(
                &prob,
                pr,
                pc,
                &FactorConfig::with_mode(ScheduleMode::SyncFree).with_policy(policy),
            );
            assert_eq!(
                reference.values(),
                f.values(),
                "{pr}x{pc} {policy:?}: factors differ from the 1x1 reference"
            );
        }
    }
}

/// Policies stay bitwise-neutral when an adversarial (lossless
/// delay/reorder) fault plan perturbs message timing — including the
/// stealing policy, whose grant/result round-trips ride the same faulted
/// mailboxes.
#[test]
fn policies_survive_adversarial_fault_plans() {
    let prob = problem(8);
    let reference = factor_once(&prob, 2, 2, ScheduleMode::SyncFree);
    for seed in [11u64, 12, 13] {
        let fault = FaultPlan::adversarial(seed);
        for policy in POLICIES {
            let f = factor_with_config(
                &prob,
                2,
                2,
                &FactorConfig::with_mode(ScheduleMode::SyncFree)
                    .with_policy(policy)
                    .with_fault(fault.clone()),
            );
            assert_eq!(
                reference.values(),
                f.values(),
                "fault seed {seed} {policy:?}: factors differ from the fault-free run"
            );
        }
    }
}

/// The lookahead window bounds *when* out-of-order work runs, not what
/// it computes: every window — including 0, which degenerates to strict
/// front-order execution — completes and matches the reference bitwise.
#[test]
fn lookahead_window_is_bitwise_neutral_including_zero() {
    let prob = problem(9);
    let reference = factor_once(&prob, 2, 2, ScheduleMode::SyncFree);
    for window in [0usize, 1, 2, 64] {
        for policy in [SchedulePolicy::Priority, SchedulePolicy::PriorityStealing] {
            let f = factor_with_config(
                &prob,
                2,
                2,
                &FactorConfig::with_mode(ScheduleMode::SyncFree)
                    .with_policy(policy)
                    .with_lookahead(window),
            );
            assert_eq!(
                reference.values(),
                f.values(),
                "window {window} {policy:?}: factors differ from the reference"
            );
        }
    }
}

/// LevelSet runs the queue in Fifo order regardless of the requested
/// policy (the barrier defines the schedule): all three policies must
/// produce identical factors *and* identical counters — the regression
/// guard for the blocked-top-task short-circuit in the LevelSet pop
/// path, which must change how often the queue is peeked, never what is
/// counted.
#[test]
fn levelset_ignores_policy_with_identical_counters() {
    let prob = problem(10);
    let (f_ref, run_ref) =
        factor_run(&prob, 2, 2, &FactorConfig::with_mode(ScheduleMode::LevelSet));
    let report_ref = run_ref.report.without_timings();
    for policy in POLICIES {
        let (f, run) = factor_run(
            &prob,
            2,
            2,
            &FactorConfig::with_mode(ScheduleMode::LevelSet).with_policy(policy),
        );
        assert_eq!(f_ref.values(), f.values(), "{policy:?}: LevelSet factors differ");
        assert_eq!(
            report_ref,
            run.report.without_timings(),
            "{policy:?}: LevelSet counters differ across policies"
        );
        assert!(run.steals.is_empty(), "{policy:?}: LevelSet must never steal");
        let sched = run.report.total_sched();
        assert_eq!((sched.steals, sched.steal_bytes), (0, 0), "{policy:?}: steal counters");
    }
}

/// Non-stealing policies keep the steal counters deterministically zero
/// (that is what lets the bench gate them exactly), and any steal the
/// stealing policy performs is consistent between the record log and the
/// metrics.
#[test]
fn steal_counters_are_zero_without_stealing_and_consistent_with_it() {
    let prob = problem(11);
    for policy in [SchedulePolicy::Fifo, SchedulePolicy::Priority] {
        let (_, run) = factor_run(
            &prob,
            2,
            2,
            &FactorConfig::with_mode(ScheduleMode::SyncFree).with_policy(policy),
        );
        let sched = run.report.total_sched();
        assert_eq!((sched.steals, sched.steal_bytes), (0, 0), "{policy:?} must not steal");
        assert!(run.steals.is_empty(), "{policy:?} logged steal records");
    }
    let (_, run) = factor_run(
        &prob,
        2,
        2,
        &FactorConfig::with_mode(ScheduleMode::SyncFree)
            .with_policy(SchedulePolicy::PriorityStealing),
    );
    let sched = run.report.total_sched();
    assert_eq!(run.steals.len() as u64, sched.steals, "steal log and counter disagree");
    if sched.steals > 0 {
        assert!(sched.steal_bytes > 0, "steals moved no bytes");
    }
}

/// Every cell of the grid × mode matrix produces usable factors: solve
/// and check the residual against the original matrix.
#[test]
fn residuals_hold_across_the_full_matrix() {
    for seed in [3u64, 4] {
        let prob = problem(seed);
        let b = gen::test_rhs(prob.a.nrows(), seed);
        for (pr, pc) in grids() {
            for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
                let mut bm = prob.bm.clone();
                let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
                factor_distributed_checked(
                    &mut bm,
                    &prob.tg,
                    &owners,
                    &prob.sel,
                    1e-12,
                    &FactorConfig::with_mode(mode),
                )
                .unwrap_or_else(|e| panic!("seed {seed} {pr}x{pc} {mode:?}: {e}"));
                let mut x = b.clone();
                forward_substitute(&bm, &mut x);
                backward_substitute(&bm, &mut x);
                let r = relative_residual(&prob.a, &x, &b).unwrap();
                assert!(r < 1e-8, "seed {seed} {pr}x{pc} {mode:?}: residual {r}");
            }
        }
    }
}

// ---- Dense-tile lane (`D_V1`) -------------------------------------------
//
// The rows above run 9-wide blocks, which always replay plans. These use
// a matrix whose trailing blocks fill in completely at a block size past
// the planned gates, so SSSSM / GESSM / TSTRF tasks take the dense-tile
// lane in every executor. The oracle is `seq::factor_sequential`, the
// unplanned reference sweep: it consults only the Figure 8 trees, never
// `KernelPlans`, so it stays on the sparse variants.

use pangulu::core::seq::{empty_plans, factor_sequential, factor_sequential_planned};
use pangulu::core::shared::factor_shared_planned;
use pangulu::kernels::{KernelPlans, Route, SsssmVariant, TrsmVariant};
use pangulu::sparse::Scalar;

const TILE_NB: usize = 33;

/// `gen::kkt(200, 90, 7)` (the golden-corpus KKT system) cut at 33: the
/// trailing 4 × 4 blocks are full.
fn filled_problem() -> (BlockMatrix, TaskGraph, KernelSelector) {
    let a = gen::kkt(200, 90, 7);
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, TILE_NB).unwrap();
    let tg = TaskGraph::build(&bm);
    (bm, tg, KernelSelector::new(a.nnz(), Thresholds::default()))
}

fn value_bits<S: Scalar>(bm: &BlockMatrix<S>) -> Vec<u64> {
    (0..bm.num_blocks())
        .flat_map(|id| bm.block(id).values().iter().map(|v| v.to_f64().to_bits()))
        .collect()
}

/// Tile-routed `[GESSM, TSTRF, SSSSM]` tasks according to a filled plan
/// pool — what the unmetered sequential and shared executors ran.
fn tile_routes<S: Scalar>(
    plans: &KernelPlans<S>,
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    sel: &KernelSelector,
) -> [u64; 3] {
    let mut n = [0u64; 3];
    for k in 0..bm.nblk() {
        let diag = bm.block(bm.block_id(k, k).unwrap());
        for &j in &tg.u_panels[k] {
            let id = bm.block_id(k, j).unwrap();
            let route = plans.prebuilt_gessm(sel, id, diag, bm.block(id));
            n[0] += u64::from(matches!(route, Route::Variant(TrsmVariant::DV1)));
        }
        for &i in &tg.l_panels[k] {
            let id = bm.block_id(i, k).unwrap();
            let route = plans.prebuilt_tstrf(sel, id, diag, bm.block(id));
            n[1] += u64::from(matches!(route, Route::Variant(TrsmVariant::DV1)));
        }
    }
    for (slot, &(i, j, k)) in tg.ssssm.iter().enumerate() {
        let a = bm.block(bm.block_id(i, k).unwrap());
        let c = bm.block(bm.block_id(i, j).unwrap());
        let route = plans.prebuilt_ssssm(sel, slot, tg.ssssm_flops[slot], a, c);
        n[2] += u64::from(matches!(route, Route::Variant(SsssmVariant::DV1)));
    }
    n
}

/// `D_V1` calls `[GESSM, TSTRF, SSSSM]` in a distributed run's kernel tally.
fn tile_calls(run: &FactorRun) -> [u64; 3] {
    let tally = run.report.total_kernels();
    ["GESSM", "TSTRF", "SSSSM"].map(|class| {
        tally.entries().find(|(c, v, _)| *c == class && *v == "D_V1").map_or(0, |(.., s)| s.calls)
    })
}

/// SSSSM tasks by what the full-target rule has them run, from structure
/// alone: `[plan replays, C_V1 in place on a full target]`. A full target
/// never has a plan; below the tile's fill cut it takes `C_V1`, whose
/// full columns are updated in place.
fn ssssm_split<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> [u64; 2] {
    let mut n = [0u64; 2];
    for (&(i, j, k), &fl) in tg.ssssm.iter().zip(&tg.ssssm_flops) {
        let c = bm.block(bm.block_id(i, j).unwrap());
        let inner = bm.block(bm.block_id(i, k).unwrap()).ncols();
        let padded = 2.0 * (c.nrows() * inner * c.ncols()) as f64;
        if !pangulu::kernels::tile::is_full(c) {
            n[0] += u64::from(fl < Thresholds::default().ssssm_planned);
        } else if fl < pangulu::kernels::select::TILE_MIN_FILL * padded {
            n[1] += 1;
        }
    }
    n
}

/// The same split as a filled plan pool routes it — what the unmetered
/// sequential and shared executors ran.
fn ssssm_routes<S: Scalar>(
    plans: &KernelPlans<S>,
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    sel: &KernelSelector,
) -> [u64; 2] {
    let mut n = [0u64; 2];
    for (slot, &(i, j, k)) in tg.ssssm.iter().enumerate() {
        let a = bm.block(bm.block_id(i, k).unwrap());
        let c = bm.block(bm.block_id(i, j).unwrap());
        let full = pangulu::kernels::tile::is_full(c);
        match plans.prebuilt_ssssm(sel, slot, tg.ssssm_flops[slot], a, c) {
            Route::Plan(..) => {
                assert!(!full, "update {slot} replays a plan on a full target");
                n[0] += 1;
            }
            Route::Variant(SsssmVariant::CV1) => n[1] += u64::from(full),
            Route::Variant(_) => {}
        }
    }
    n
}

fn assert_lane_ran(calls: [u64; 3], tag: &str) {
    assert!(calls.iter().all(|&c| c >= 1), "{tag}: a class never took the tile lane: {calls:?}");
}

/// Sequential / shared / distributed grids × schedule modes × policies ×
/// an adversarial fault plan, in scalar type `S`: all bitwise equal to
/// the sparse-variant reference sweep, with the lane active everywhere.
fn dense_tile_rows<S: Scalar>() {
    let (bm64, tg, sel) = filled_problem();
    let bm0 = bm64.cast::<S>();
    let w = S::LABEL;
    let mut reference = bm0.clone();
    factor_sequential(&mut reference, &tg, &sel, 1e-12);
    let reference = value_bits(&reference);
    // The full-target rule is exercised too: some updates onto full
    // targets fall under the tile's fill cut and run `C_V1` in place,
    // and no plan replay is one of them.
    let split = ssssm_split(&bm0, &tg);
    assert!(split[0] >= 1 && split[1] >= 1, "{w}: fixture covers both sides: {split:?}");

    let mut bm = bm0.clone();
    let mut plans = empty_plans(&bm, &tg);
    factor_sequential_planned(&mut bm, &tg, &sel, 1e-12, &mut plans);
    assert_eq!(reference, value_bits(&bm), "{w} sequential: tile lane moved a bit");
    assert_lane_ran(tile_routes(&plans, &bm0, &tg, &sel), &format!("{w} sequential"));
    assert_eq!(ssssm_routes(&plans, &bm0, &tg, &sel), split, "{w} sequential");

    // One shared worker applies updates in a fixed order; several race
    // for a target, which the executor documents as tolerance-only.
    let mut bm = bm0.clone();
    let mut plans = empty_plans(&bm, &tg);
    factor_shared_planned(&mut bm, &tg, &sel, 1e-12, 1, &mut plans);
    assert_eq!(reference, value_bits(&bm), "{w} shared x1: tile lane moved a bit");
    assert_lane_ran(tile_routes(&plans, &bm0, &tg, &sel), &format!("{w} shared"));
    assert_eq!(ssssm_routes(&plans, &bm0, &tg, &sel), split, "{w} shared");
    let mut racy = bm0.clone();
    factor_shared_planned(&mut racy, &tg, &sel, 1e-12, 3, &mut plans);
    let tol = if S::WIDTH == 4 { 1e-3 } else { 1e-9 };
    let (want, got) = (bm.to_csc().cast::<f64>(), racy.to_csc().cast::<f64>());
    let diff = want.to_dense().max_abs_diff(&got.to_dense()) / want.norm_max().max(1.0);
    assert!(diff < tol, "{w} shared x3: {diff} off the one-worker factors");

    let run_dist = |pr: usize, pc: usize, cfg: &FactorConfig, tag: &str| {
        let mut bm = bm0.clone();
        let owners = OwnerMap::balanced(&bm64, ProcessGrid::with_shape(pr, pc), &tg);
        let run = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 1e-12, cfg)
            .unwrap_or_else(|e| panic!("{w} {pr}x{pc} {tag}: {e}"));
        assert_eq!(reference, value_bits(&bm), "{w} {pr}x{pc} {tag}: tile lane moved a bit");
        assert_lane_ran(tile_calls(&run), &format!("{w} {pr}x{pc} {tag}"));
        let tally = run.report.total_kernels();
        let calls = |variant: &str| {
            let hit = tally.entries().find(|(c, v, _)| *c == "SSSSM" && *v == variant);
            hit.map_or(0, |(.., s)| s.calls)
        };
        assert_eq!(calls("P_V1"), split[0], "{w} {pr}x{pc} {tag}: a full target replayed a plan");
        assert!(calls("C_V1") >= split[1], "{w} {pr}x{pc} {tag}: in-place C_V1 did not run");
        run
    };
    for (pr, pc) in grids() {
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            let run = run_dist(pr, pc, &FactorConfig::with_mode(mode), &format!("{mode:?}"));
            // Model FLOPs, never the padded dense count.
            assert_eq!(
                run.report.observed_flops(),
                run.report.predicted_flops,
                "{w} {pr}x{pc} {mode:?}: observed != predicted FLOPs"
            );
        }
    }
    for policy in POLICIES {
        let cfg = FactorConfig::with_mode(ScheduleMode::SyncFree).with_policy(policy);
        run_dist(2, 2, &cfg, &format!("{policy:?}"));
        run_dist(
            3,
            2,
            &cfg.clone().with_fault(FaultPlan::adversarial(21)),
            &format!("{policy:?}+fault"),
        );
    }
}

#[test]
fn dense_tile_lane_is_bitwise_neutral_everywhere_f64() {
    dense_tile_rows::<f64>();
}

/// The `MixedF32` factorisation runs the same executors on `f32` blocks
/// (8-row tiles instead of 4).
#[test]
fn dense_tile_lane_is_bitwise_neutral_everywhere_f32() {
    dense_tile_rows::<f32>();
}

// ---- Plans on second use -------------------------------------------------
//
// `Solver::build` routes its one numeric run with the planned gates closed
// and the first `refactor` builds the plans, so the same solver runs the
// variant route first and the planned route ever after. At the `Solver`
// level, on every executor and in both widths, the two must agree: bit
// for bit on the sequential and message-passing executors, and to the
// shared executor's own contract (it applies same-target updates in
// arrival order, so it is held to a tolerance, as in `shared.rs`) there.
// (`A′` keeps the cached reordering and scalings of `A`, so `refactor(A)`
// after it is comparable with `build(A)`.)

#[test]
fn first_run_variant_route_equals_later_planned_route_on_every_executor() {
    use pangulu::prelude::*;
    let a = gen::circuit(300, 21);
    let a2 = {
        let mut a2 = a.clone();
        a2.values_mut().iter_mut().enumerate().for_each(|(k, v)| *v *= 1.0 + 0.01 * (k % 7) as f64);
        a2
    };
    let values = |s: &Solver| -> Vec<f64> {
        let bits = s.factored32().map_or_else(|| value_bits(s.factored()), value_bits);
        bits.into_iter().map(f64::from_bits).collect()
    };
    type Configure = fn(SolverBuilder) -> SolverBuilder;
    let executors: [(&str, bool, Configure); 4] = [
        ("sequential", true, |b| b),
        ("shared x3", false, |b| b.shared_threads(3)),
        ("2 ranks", true, |b| b.ranks(2)),
        ("4 ranks", true, |b| b.ranks(4)),
    ];
    for (precision, shared_tol) in [(Precision::F64, 1e-10), (Precision::MixedF32, 1e-4)] {
        let mut reference: Option<Vec<f64>> = None;
        for (tag, bitwise, configure) in executors {
            let tag = format!("{tag} {precision:?}");
            let same = |got: &[f64], want: &[f64], what: &str| {
                if bitwise {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "{tag}: {what} moved a bit");
                } else {
                    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    let diff = got.iter().zip(want).fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
                    assert!(diff <= shared_tol * scale, "{tag}: {what} off by {diff}");
                }
            };
            let mut solver = configure(Solver::builder().precision(precision)).build(&a).unwrap();
            assert_eq!(solver.effective_precision(), precision, "{tag}");
            assert_eq!(solver.kernel_plan_stats().builds, 0, "{tag}: build() planned");
            let first_run = values(&solver);
            same(&first_run, reference.get_or_insert(first_run.clone()), "executor vs sequential");

            solver.refactor(&a).unwrap();
            let built = solver.kernel_plan_stats();
            assert!(built.builds > 0, "{tag}: the first refactor built no plans");
            same(&values(&solver), &first_run, "the plan-building run");

            solver.refactor(&a2).unwrap();
            assert_ne!(values(&solver), first_run, "{tag}: the fixture cannot tell");
            solver.refactor(&a).unwrap();
            assert_eq!(solver.kernel_plan_stats().builds, built.builds, "{tag}: rebuilt");
            if let Some(report) = solver.stats().report.as_ref() {
                assert!(report.total_mem().planned_calls > 0, "{tag}: nothing replayed");
            }
            same(&values(&solver), &first_run, "the plan-replaying run");
        }
    }
}

//! Determinism regression guard: every executor applies each block's
//! SSSSM updates one at a time in ascending elimination-step order no
//! matter when their operands become ready, so the computed L/U factors
//! are *bitwise* identical across repeated runs — per grid shape, and
//! per shared-memory thread count — and the residual stays small on every
//! grid of {1×1, 1×2, 2×2, 3×2}.

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{
    factor_distributed_cached, factor_distributed_checked, DistError, FactorConfig, FactorRun,
    NumericWorkspace,
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

fn factor_once(prob: &Problem, pr: usize, pc: usize) -> CscMatrix {
    factor_with_config(prob, pr, pc, &FactorConfig::default())
}

fn factor_with_config(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> CscMatrix {
    factor_run_with(prob, &prob.sel, pr, pc, cfg).0
}

/// Factors a copy of `bm0` twice on one workspace and returns the second
/// run: a fresh plan pool's first run builds no plan, so the second is
/// the one that builds and replays what `sel`'s gates admit.
fn second_run<S: pangulu::sparse::Scalar>(
    bm0: &BlockMatrix<S>,
    tg: &TaskGraph,
    owners: &OwnerMap,
    sel: &KernelSelector,
    cfg: &FactorConfig,
) -> Result<(BlockMatrix<S>, FactorRun), DistError> {
    let mut ws = NumericWorkspace::new(bm0, tg, owners);
    factor_distributed_cached(&mut bm0.clone(), tg, owners, sel, 1e-12, cfg, &mut ws)?;
    let mut bm = bm0.clone();
    let run = factor_distributed_cached(&mut bm, tg, owners, sel, 1e-12, cfg, &mut ws)?;
    Ok((bm, run))
}

/// The planned arm on a `pr × pc` grid: a workspace's second run.
fn factor_run_with(
    prob: &Problem,
    sel: &KernelSelector,
    pr: usize,
    pc: usize,
    cfg: &FactorConfig,
) -> (CscMatrix, FactorRun) {
    let owners = OwnerMap::balanced(&prob.bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
    let (bm, run) = second_run(&prob.bm, &prob.tg, &owners, sel, cfg)
        .unwrap_or_else(|e| panic!("{pr}x{pc}: {e}"));
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
        "{pr}x{pc}: closed gates still planned"
    );
    f
}

/// Same seed, same grid → the factors are bitwise identical run to run,
/// despite nondeterministic thread interleaving.
#[test]
fn repeated_runs_are_bitwise_identical() {
    let prob = problem(1);
    for (pr, pc) in grids() {
        let f1 = factor_once(&prob, pr, pc);
        let f2 = factor_once(&prob, pr, pc);
        assert_eq!(f1.values(), f2.values(), "{pr}x{pc}: factors changed between identical runs");
    }
}

/// The deterministic (ascending-k) update order is also grid-independent,
/// so every grid computes the *same* factors — compared bitwise against
/// the 1×1 reference.
#[test]
fn factors_agree_across_grids_and_modes() {
    let prob = problem(2);
    let reference = factor_once(&prob, 1, 1);
    for (pr, pc) in grids() {
        let f = factor_once(&prob, pr, pc);
        assert_eq!(
            reference.values(),
            f.values(),
            "{pr}x{pc}: factors differ from the 1x1 reference"
        );
    }
}

/// Kernel plans are bitwise-neutral: with plans disabled, every grid
/// still computes the exact factors of the planned default —
/// including the sequential reference (the unplanned sequential sweep,
/// the 1×1 distributed run, and the unplanned runs all agree bitwise).
#[test]
fn planned_and_unplanned_factors_are_bitwise_identical() {
    let prob = problem(5);

    // The unplanned sequential sweep as the schedule-free reference.
    let mut seq_bm = prob.bm.clone();
    pangulu::core::seq::factor_sequential(&mut seq_bm, &prob.tg, &prob.sel, 1e-12);
    let reference = seq_bm.to_csc();

    for (pr, pc) in grids() {
        let planned = factor_with_config(&prob, pr, pc, &FactorConfig::default());
        let unplanned = factor_unplanned(&prob, pr, pc, &FactorConfig::default());
        assert_eq!(planned.values(), unplanned.values(), "{pr}x{pc}: plans changed the factors");
        assert_eq!(
            reference.values(),
            planned.values(),
            "{pr}x{pc}: planned factors differ from the sequential reference"
        );
    }
}

/// Plans stay bitwise-neutral when an adversarial fault plan perturbs
/// message timing, ordering, and delivery.
#[test]
fn planned_factors_survive_adversarial_fault_plans() {
    let prob = problem(6);
    let reference = factor_once(&prob, 2, 2);
    for seed in [7u64, 8, 9] {
        let fault = FaultPlan::adversarial(seed);
        let planned =
            factor_with_config(&prob, 2, 2, &FactorConfig::default().with_fault(fault.clone()));
        let unplanned = factor_unplanned(&prob, 2, 2, &FactorConfig::default().with_fault(fault));
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
/// across grids — and under adversarial fault plans. Runs
/// partition each index list left to right, so the per-element order and
/// arithmetic never change; this pins that.
#[test]
fn run_planned_factors_are_bitwise_identical_to_unplanned() {
    let prob = problem(12);
    let reference = factor_once(&prob, 1, 1);
    for (pr, pc) in grids() {
        let cfg = FactorConfig::default();
        let run_planned = factor_with_config(&prob, pr, pc, &cfg);
        let unplanned = factor_unplanned(&prob, pr, pc, &cfg);
        assert_eq!(
            run_planned.values(),
            unplanned.values(),
            "{pr}x{pc}: run-segmented replay diverged from unplanned"
        );
        assert_eq!(
            reference.values(),
            run_planned.values(),
            "{pr}x{pc}: run-segmented factors differ from the 1x1 reference"
        );
    }
    for seed in [14u64, 15] {
        let cfg = FactorConfig::default().with_fault(FaultPlan::adversarial(seed));
        let f = factor_with_config(&prob, 2, 2, &cfg);
        assert_eq!(
            reference.values(),
            f.values(),
            "fault seed {seed}: faulted factors differ from the reference"
        );
    }
}

/// The scheduling policy — which rank's ready queue a task lands in
/// (block-cyclic or balanced ownership), and whether kernel calls are
/// traced and tallied on the way — is bitwise-neutral on every grid:
/// each cell matches the 1×1 reference.
#[test]
fn factors_agree_across_scheduling_policies() {
    let prob = problem(7);
    let reference = factor_once(&prob, 1, 1);
    let configs = [
        ("default", FactorConfig::default()),
        ("traced", FactorConfig::default().traced()),
        ("no-metrics", FactorConfig::default().with_metrics(false)),
    ];
    for (pr, pc) in grids() {
        let grid = ProcessGrid::with_shape(pr, pc);
        let maps = [
            ("block-cyclic", OwnerMap::block_cyclic(&prob.bm, grid)),
            ("balanced", OwnerMap::balanced(&prob.bm, grid, &prob.tg)),
        ];
        for (map, owners) in &maps {
            for (tag, cfg) in &configs {
                let (bm, _) = second_run(&prob.bm, &prob.tg, owners, &prob.sel, cfg)
                    .unwrap_or_else(|e| panic!("{pr}x{pc} {map} {tag}: {e}"));
                assert_eq!(
                    reference.values(),
                    bm.to_csc().values(),
                    "{pr}x{pc} {map} {tag}: factors differ from the 1x1 reference"
                );
            }
        }
    }
}

/// The sync-free schedule stays bitwise-neutral when an adversarial
/// (lossless delay/reorder) fault plan perturbs message timing.
#[test]
fn policies_survive_adversarial_fault_plans() {
    let prob = problem(8);
    let reference = factor_once(&prob, 2, 2);
    for seed in [11u64, 12, 13] {
        let cfg = FactorConfig::default().with_fault(FaultPlan::adversarial(seed));
        let f = factor_with_config(&prob, 2, 2, &cfg);
        assert_eq!(
            reference.values(),
            f.values(),
            "fault seed {seed}: factors differ from the fault-free run"
        );
    }
}

/// Every grid produces usable factors: solve and check the residual
/// against the original matrix.
#[test]
fn residuals_hold_across_the_full_matrix() {
    for seed in [3u64, 4] {
        let prob = problem(seed);
        let b = gen::test_rhs(prob.a.nrows(), seed);
        for (pr, pc) in grids() {
            let mut bm = prob.bm.clone();
            let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
            let cfg = FactorConfig::default();
            factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed} {pr}x{pc}: {e}"));
            let mut x = b.clone();
            forward_substitute(&bm, &mut x);
            backward_substitute(&bm, &mut x);
            let r = relative_residual(&prob.a, &x, &b).unwrap();
            assert!(r < 1e-8, "seed {seed} {pr}x{pc}: residual {r}");
        }
    }
}

// ---- Dense-tile lane (`D_V1`) -------------------------------------------
//
// The rows above run 9-wide blocks, which always replay plans. These use
// a matrix whose trailing blocks fill in completely at a block size past
// the planned gates, so GETRF / SSSSM / GESSM / TSTRF tasks take the
// dense-tile lane in every executor. The oracle is `seq::factor_sequential`, the
// unplanned reference sweep: it consults only the Figure 8 trees, never
// `KernelPlans`, so it stays on the sparse variants.

use pangulu::core::seq::{empty_plans, factor_sequential, factor_sequential_planned};
use pangulu::core::shared::factor_shared_planned;
use pangulu::kernels::{GetrfVariant, KernelPlans, Route, SsssmVariant, TrsmVariant};
use pangulu::sparse::Scalar;

const TILE_NB: usize = 36;

/// `gen::kkt(200, 90, 7)` (the golden-corpus KKT system) cut at 36: the
/// trailing blocks are full, and two GESSM and two TSTRF panel blocks
/// past the planned gates are filled but not full (at 33 there are
/// none).
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

/// Tile-routed `[GETRF, GESSM, TSTRF, SSSSM]` tasks according to a
/// filled plan pool — what the unmetered sequential and shared executors
/// ran.
fn tile_routes<S: Scalar>(
    plans: &KernelPlans<S>,
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    sel: &KernelSelector,
) -> [u64; 4] {
    let mut n = [0u64; 4];
    for k in 0..bm.nblk() {
        let diag = bm.block(bm.block_id(k, k).unwrap());
        let route = plans.route_getrf(sel, k, diag);
        n[0] += u64::from(matches!(route, Route::Variant(GetrfVariant::DV1)));
        for &j in &tg.u_panels[k] {
            let id = bm.block_id(k, j).unwrap();
            let route = plans.route_gessm(sel, id, tg.panel_flops[id], diag, bm.block(id));
            n[1] += u64::from(matches!(route, Route::Variant(TrsmVariant::DV1)));
        }
        for &i in &tg.l_panels[k] {
            let id = bm.block_id(i, k).unwrap();
            let route = plans.route_tstrf(sel, id, tg.panel_flops[id], diag, bm.block(id));
            n[2] += u64::from(matches!(route, Route::Variant(TrsmVariant::DV1)));
        }
    }
    for (slot, &(i, j, k)) in tg.ssssm.iter().enumerate() {
        let a = bm.block(bm.block_id(i, k).unwrap());
        let c = bm.block(bm.block_id(i, j).unwrap());
        let route = plans.route_ssssm(sel, slot, tg.ssssm_flops[slot], a, c);
        n[3] += u64::from(matches!(route, Route::Variant(SsssmVariant::DV1)));
    }
    n
}

/// `D_V1` calls `[GETRF, GESSM, TSTRF, SSSSM]` in a distributed run's
/// kernel tally.
fn tile_calls(run: &FactorRun) -> [u64; 4] {
    let tally = run.report.total_kernels();
    ["GETRF", "GESSM", "TSTRF", "SSSSM"].map(|class| {
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
        match plans.route_ssssm(sel, slot, tg.ssssm_flops[slot], a, c) {
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

/// Panel solves `[GESSM, TSTRF]` the fill rule sends to the lane, from
/// structure alone: past the planned gate, with model FLOPs at least
/// `PANEL_MIN_FILL` of the padded dense count (`n·m·(m−1)` for GESSM,
/// `m·n²` for TSTRF), and, under a factor block that is not full, a
/// panel at least half as wide (GESSM) or tall (TSTRF) as the factor's
/// order; the second pair counts those whose factor or panel block is
/// not full and is expanded.
fn panel_split<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> ([u64; 2], [u64; 2]) {
    let (mut lane, mut expanded) = ([0u64; 2], [0u64; 2]);
    let full = pangulu::kernels::tile::is_full::<S>;
    let gate = Thresholds::default();
    for k in 0..bm.nblk() {
        let diag = bm.block(bm.block_id(k, k).unwrap());
        let ids = tg.u_panels[k].iter().map(|&j| (0, bm.block_id(k, j).unwrap()));
        let ids = ids.chain(tg.l_panels[k].iter().map(|&i| (1, bm.block_id(i, k).unwrap())));
        for (class, id) in ids {
            let b = bm.block(id);
            let (m, n) = (b.nrows(), b.ncols());
            let (padded, across, planned) = if class == 0 {
                (n * m * m.saturating_sub(1), n, gate.gessm_planned)
            } else {
                (m * n * n, m, gate.tstrf_planned)
            };
            let cut = pangulu::kernels::select::PANEL_MIN_FILL * padded as f64;
            let shared = full(diag) || 2 * across >= diag.nrows();
            if (b.nnz() as f64) >= planned && padded > 0 && tg.panel_flops[id] >= cut && shared {
                lane[class] += 1;
                expanded[class] += u64::from(!full(diag) || !full(b));
            }
        }
    }
    (lane, expanded)
}

fn assert_lane_ran(calls: [u64; 4], tag: &str) {
    assert!(calls.iter().all(|&c| c >= 1), "{tag}: a class never took the tile lane: {calls:?}");
}

/// Sequential / shared / distributed grids × an adversarial fault
/// plan, in scalar type `S`: all bitwise equal to
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
    // Filled panel blocks that are not full take the lane too, expanded.
    let (panels, expanded) = panel_split(&bm0, &tg);
    assert!(expanded.iter().all(|&e| e >= 1), "{w}: no panel is expanded: {expanded:?}");
    let panel_routes = |routes: [u64; 4]| [routes[1], routes[2]];

    // A pool's first run is plan-free and its second builds the plans;
    // the routes are read from the pool the second run left.
    let mut plans = empty_plans(&bm0, &tg);
    for run in 0..2 {
        let mut bm = bm0.clone();
        factor_sequential_planned(&mut bm, &tg, &sel, 1e-12, &mut plans);
        assert_eq!(reference, value_bits(&bm), "{w} sequential run {run}: tile lane moved a bit");
    }
    let routes = tile_routes(&plans, &bm0, &tg, &sel);
    assert_lane_ran(routes, &format!("{w} sequential"));
    assert_eq!(panel_routes(routes), panels, "{w} sequential: panel routes");
    assert_eq!(ssssm_routes(&plans, &bm0, &tg, &sel), split, "{w} sequential");

    for threads in [1, 3] {
        let mut plans = empty_plans(&bm0, &tg);
        for run in 0..2 {
            let mut bm = bm0.clone();
            factor_shared_planned(&mut bm, &tg, &sel, 1e-12, threads, &mut plans);
            let tag = format!("{w} shared x{threads} run {run}");
            assert_eq!(reference, value_bits(&bm), "{tag}: tile lane moved a bit");
        }
        let routes = tile_routes(&plans, &bm0, &tg, &sel);
        assert_lane_ran(routes, &format!("{w} shared"));
        assert_eq!(panel_routes(routes), panels, "{w} shared x{threads}: panel routes");
        assert_eq!(ssssm_routes(&plans, &bm0, &tg, &sel), split, "{w} shared");
    }

    let run_dist = |pr: usize, pc: usize, cfg: &FactorConfig, tag: &str| {
        let owners = OwnerMap::balanced(&bm64, ProcessGrid::with_shape(pr, pc), &tg);
        let (bm, run) = second_run(&bm0, &tg, &owners, &sel, cfg)
            .unwrap_or_else(|e| panic!("{w} {pr}x{pc} {tag}: {e}"));
        assert_eq!(reference, value_bits(&bm), "{w} {pr}x{pc} {tag}: tile lane moved a bit");
        assert_lane_ran(tile_calls(&run), &format!("{w} {pr}x{pc} {tag}"));
        let calls = panel_routes(tile_calls(&run));
        assert_eq!(calls, panels, "{w} {pr}x{pc} {tag}: panel D_V1 calls");
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
        let run = run_dist(pr, pc, &FactorConfig::default(), "fault-free");
        // Model FLOPs, never the padded dense count.
        assert_eq!(
            run.report.observed_flops(),
            run.report.predicted_flops,
            "{w} {pr}x{pc}: observed != predicted FLOPs"
        );
    }
    let faulted = FactorConfig::default().with_fault(FaultPlan::adversarial(21));
    run_dist(3, 2, &faulted, "fault");
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
// `Solver::build` runs a fresh plan pool, whose first run builds no plan,
// and the first `refactor` builds the plans, so the same solver runs the
// variant route first and the planned route ever after. At the `Solver`
// level, on every executor and in both widths, the two must agree bit for
// bit. (`A′` keeps the cached reordering and scalings of `A`, so `refactor(A)`
// after it is comparable with `build(A)`.) Every executor also builds the
// same plan pool — the same bytes from the same number of builds — whether
// one engine plans every task or each rank plans the tasks it owns.

#[test]
fn first_run_variant_route_equals_later_planned_route_on_every_executor() {
    use pangulu::prelude::*;
    let values = |s: &Solver| -> Vec<f64> {
        let bits = s.factored32().map_or_else(|| value_bits(s.factored()), value_bits);
        bits.into_iter().map(f64::from_bits).collect()
    };
    type Configure = fn(SolverBuilder) -> SolverBuilder;
    let executors: [(&str, Configure); 4] = [
        ("sequential", |b| b),
        ("shared x3", |b| b.shared_threads(3)),
        ("2 ranks", |b| b.ranks(2)),
        ("4 ranks", |b| b.ranks(4)),
    ];
    for (name, a) in
        [("circuit(300, 21)", gen::circuit(300, 21)), ("kkt(400, 180, 5)", gen::kkt(400, 180, 5))]
    {
        let a2 = {
            let mut a2 = a.clone();
            a2.values_mut()
                .iter_mut()
                .enumerate()
                .for_each(|(k, v)| *v *= 1.0 + 0.01 * (k % 7) as f64);
            a2
        };
        for precision in [Precision::F64, Precision::MixedF32] {
            let mut reference: Option<Vec<f64>> = None;
            let mut reference_pool: Option<(u64, u64)> = None;
            for (tag, configure) in executors {
                let tag = format!("{name} {tag} {precision:?}");
                let same = |got: &[f64], want: &[f64], what: &str| {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "{tag}: {what} moved a bit");
                };
                let mut solver =
                    configure(Solver::builder().precision(precision)).build(&a).unwrap();
                assert_eq!(solver.effective_precision(), precision, "{tag}");
                assert_eq!(solver.kernel_plan_stats().builds, 0, "{tag}: build() planned");
                let first_run = values(&solver);
                same(
                    &first_run,
                    reference.get_or_insert(first_run.clone()),
                    "executor vs sequential",
                );

                solver.refactor(&a).unwrap();
                let built = solver.kernel_plan_stats();
                assert!(built.builds > 0, "{tag}: the first refactor built no plans");
                let pool = (built.bytes, built.builds);
                assert_eq!(
                    pool,
                    *reference_pool.get_or_insert(pool),
                    "{tag}: plan pool (bytes, builds)"
                );
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
}

// ---- Shared-memory executor under thread-count stress --------------------
//
// Each target's updates run one at a time in ascending `k`, so the shared
// executor's factors are the unplanned sequential sweep's at any thread
// count — however the workers interleave, run after run. The reference is
// not the planned one-rank path, which is this engine at one worker.

fn reordered_problem(a: &CscMatrix, nb: usize) -> (BlockMatrix, TaskGraph, KernelSelector) {
    use pangulu::reorder::{reorder_for_lu, FillReducing};
    let m = reorder_for_lu(a, FillReducing::Auto).unwrap().matrix;
    let f = pangulu::symbolic::symbolic_fill(&m).unwrap().filled_matrix(&m).unwrap();
    let bm = BlockMatrix::from_filled(&f, nb).unwrap();
    let tg = TaskGraph::build(&bm);
    (bm, tg, KernelSelector::new(a.nnz(), Thresholds::default()))
}

fn shared_threads_stress<S: Scalar>(repeats: usize) {
    for (name, a) in [
        ("circuit(1500)", gen::circuit(1500, 3)),
        ("kkt(400, 180)", gen::kkt(400, 180, 5)),
        ("laplacian_2d(40, 40)", gen::laplacian_2d(40, 40)),
    ] {
        for nb in [7, 16, 33] {
            let (bm64, tg, sel) = reordered_problem(&a, nb);
            let bm0 = bm64.cast::<S>();
            let mut seq = bm0.clone();
            factor_sequential(&mut seq, &tg, &sel, 1e-12);
            let reference = value_bits(&seq);
            for threads in 2..=8 {
                let mut plans = empty_plans(&bm0, &tg);
                for rep in 0..repeats {
                    let mut bm = bm0.clone();
                    factor_shared_planned(&mut bm, &tg, &sel, 1e-12, threads, &mut plans);
                    assert!(
                        reference == value_bits(&bm),
                        "{} {name} nb {nb}: {threads} threads, run {rep} moved a bit",
                        S::LABEL
                    );
                }
            }
        }
    }
}

#[test]
fn shared_executor_is_bitwise_sequential_at_every_thread_count_f64() {
    shared_threads_stress::<f64>(4);
}

#[test]
fn shared_executor_is_bitwise_sequential_at_every_thread_count_f32() {
    shared_threads_stress::<f32>(2);
}

//! Golden counts: the deterministic work of a fixed corpus, pinned as
//! Rust constants. Six matrices, one per structure class (the generators
//! of `tests/solver_equivalence.rs` at larger sizes), each factored on a
//! 2x2 rank grid, give a **smoke** row (one full `build()`) and a
//! **refactor** row (the last of [`REFACTORS`] numeric-only refactors).
//! A drift means the schedule or the accounting changed: fix the program
//! or, if the change is deliberate, paste the measured rows the failure
//! prints over the constants. Time is not checked: `benchmark/` owns it.

use pangulu::core::block::BlockMatrix;
use pangulu::core::task::TaskGraph;
use pangulu::kernels::{
    flops, getrf, plan, ssssm, trsm, GetrfVariant, KernelScratch, SsssmVariant, TrsmVariant,
};
use pangulu::metrics::{PhaseCounters, RunReport};
use pangulu::prelude::*;
use pangulu::sparse::{gen, ops, Scalar};

/// A 2x2 grid: the smallest that exercises row *and* column traffic.
const RANKS: usize = 4;
/// Numeric-only refactors before the refactor row is read. With the
/// default probe cadence of 4 the mixed solver both skips and runs the
/// acceptance probe.
const REFACTORS: usize = 5;
const FLOP_RTOL: f64 = 1e-9;
const RESIDUAL_FLOOR: f64 = 1e-11;
/// Bytes of one message header, the same at every precision.
const HEADER_BYTES: u64 = 24;

/// The exact keys of a row, in the order of [`Row::exact`]: traffic,
/// tasks, kernel calls (total, then per class), copy and plan counters
/// and phase runs.
const KEYS: [&str; 21] = [
    "msgs",
    "bytes",
    "tasks",
    "kernel_calls",
    "GETRF",
    "GESSM",
    "TSTRF",
    "SSSSM",
    "bytes_copied",
    "payload_allocs",
    "pattern_cache_hits",
    "planned_calls",
    "index_searches_avoided",
    "plan_bytes",
    "plan_runs",
    "run_axpy_entries",
    "reorder_runs",
    "symbolic_runs",
    "preprocess_runs",
    "numeric_runs",
    "analysis_reuses",
];
const FLOP_KEYS: [&str; 2] = ["observed_flops", "predicted_flops"];

/// The keys of the mixed-precision solver, in the order of
/// [`Golden::mixed`]: its scatter bytes and plan bytes, the refinement
/// iterations of one solve, and its lifetime fallbacks and skipped probes.
const MIXED_KEYS: [&str; 5] =
    ["mixed_bytes", "mixed_plan_bytes", "refine_iters", "precision_fallbacks", "probe_skips"];

#[derive(Debug)]
struct Row {
    exact: [u64; KEYS.len()],
    /// Observed and model-predicted FLOPs.
    flops: [f64; 2],
    residual: f64,
}

struct Golden {
    smoke: Row,
    refactor: Row,
    mixed: [u64; MIXED_KEYS.len()],
    mixed_residual: f64,
}

const LAPLACIAN_2D: Golden = Golden {
    smoke: Row {
        exact: [
            1079, 9065320, 2048, 2048, 85, 323, 323, 1317, 14458192, 714, 0, 0, 0, 0, 0, 0, 1, 1,
            1, 1, 0,
        ],
        flops: [43275220.0, 43275220.0],
        residual: 6.636231043087432e-15,
    },
    refactor: Row {
        exact: [
            1079, 9065320, 2048, 2048, 85, 323, 323, 1317, 14458192, 714, 1079, 1822, 7288022,
            4357520, 788088, 6499934, 0, 0, 0, 5, 5,
        ],
        flops: [43275220.0, 43275220.0],
        residual: 6.624044340585632e-15,
    },
    mixed: [4545608, 4357520, 4, 0, 4],
    mixed_residual: 2.793289535510508e-15,
};

const CIRCUIT: Golden = Golden {
    smoke: Row {
        exact: [
            712, 2967984, 1194, 1194, 54, 196, 196, 748, 4714312, 445, 0, 0, 0, 0, 0, 0, 1, 1, 1,
            1, 0,
        ],
        flops: [5816518.0, 5816518.0],
        residual: 2.669956254999057e-16,
    },
    refactor: Row {
        exact: [
            712, 2967984, 1194, 1194, 54, 196, 196, 748, 4714312, 445, 712, 844, 472919, 887946,
            202312, 270607, 0, 0, 0, 5, 5,
        ],
        flops: [5816518.0, 5816518.0],
        residual: 2.678999027185755e-16,
    },
    mixed: [1492536, 887946, 2, 0, 4],
    mixed_residual: 1.5675144590249424e-16,
};

const FEM_BLOCKED: Golden = Golden {
    smoke: Row {
        exact: [
            349, 1558392, 552, 552, 32, 98, 98, 324, 2438624, 225, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0,
        ],
        flops: [2918525.0, 2918525.0],
        residual: 2.90012226210888e-16,
    },
    refactor: Row {
        exact: [
            349, 1558392, 552, 552, 32, 98, 98, 324, 2438624, 225, 349, 526, 1175245, 876628,
            142490, 1032755, 0, 0, 0, 5, 5,
        ],
        flops: [2918525.0, 2918525.0],
        residual: 2.8993928746604734e-16,
    },
    mixed: [783384, 876628, 2, 0, 4],
    mixed_residual: 2.0238554785408097e-16,
};

const KKT: Golden = Golden {
    smoke: Row {
        exact: [
            850, 12801312, 3228, 3228, 30, 262, 262, 2674, 23131688, 553, 0, 0, 0, 0, 0, 0, 1, 1,
            1, 1, 0,
        ],
        flops: [906155072.0, 906155072.0],
        residual: 8.297152136892869e-16,
    },
    refactor: Row {
        exact: [
            850, 12801312, 3228, 3228, 30, 262, 262, 2674, 23131688, 553, 850, 1429, 923175,
            1155006, 304576, 618599, 0, 0, 0, 5, 5,
        ],
        flops: [906155072.0, 906155072.0],
        residual: 8.286217847511829e-16,
    },
    mixed: [6410856, 1155006, 2, 0, 4],
    mixed_residual: 1.5042107669736666e-16,
};

const CAGE_LIKE: Golden = Golden {
    smoke: Row {
        exact: [
            490, 5500016, 1442, 1442, 29, 167, 167, 1079, 9625440, 362, 0, 0, 0, 0, 0, 0, 1, 1, 1,
            1, 0,
        ],
        flops: [142202518.0, 142202518.0],
        residual: 3.0803149887842485e-16,
    },
    refactor: Row {
        exact: [
            490, 5500016, 1442, 1442, 29, 167, 167, 1079, 9625440, 362, 490, 901, 2150103, 2167472,
            535241, 1614862, 0, 0, 0, 5, 5,
        ],
        flops: [142202518.0, 142202518.0],
        residual: 3.0865232502335987e-16,
    },
    mixed: [2755888, 2167472, 2, 0, 4],
    mixed_residual: 1.376427892445986e-16,
};

const DENSE_BANDED: Golden = Golden {
    smoke: Row {
        exact: [
            98, 1292744, 113, 113, 29, 28, 28, 28, 1982352, 70, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0,
        ],
        flops: [2137197.0, 2137197.0],
        residual: 3.577619340292426e-16,
    },
    refactor: Row {
        exact: [
            98, 1292744, 113, 113, 29, 28, 28, 28, 1982352, 70, 98, 113, 1045813, 468940, 88828,
            956985, 0, 0, 0, 5, 5,
        ],
        flops: [2137197.0, 2137197.0],
        residual: 3.577619340292426e-16,
    },
    mixed: [647548, 468940, 2, 0, 4],
    mixed_residual: 2.203918045845309e-16,
};

/// One row's exact counters.
fn row(report: &RunReport, phases: PhaseCounters, residual: f64) -> Row {
    let mem = report.total_mem();
    let [getrf, gessm, tstrf, ssssm] = report.total_kernels().calls_by_class();
    Row {
        exact: [
            report.total_messages(),
            report.total_bytes(),
            report.total_tasks().total(),
            report.total_kernels().total_calls(),
            getrf,
            gessm,
            tstrf,
            ssssm,
            mem.bytes_copied,
            mem.payload_allocs,
            mem.pattern_cache_hits,
            mem.planned_calls,
            mem.index_searches_avoided,
            mem.plan_bytes,
            mem.plan_runs,
            mem.run_axpy_entries,
            phases.reorder_runs,
            phases.symbolic_runs,
            phases.preprocess_runs,
            phases.numeric_runs,
            phases.analysis_reuses,
        ],
        flops: [report.observed_flops(), report.predicted_flops],
        residual,
    }
}

/// Relative residual of the fixed right-hand side through `solver`.
fn residual(solver: &Solver, a: &CscMatrix) -> f64 {
    let b = gen::test_rhs(a.nrows(), 11);
    ops::relative_residual(a, &solver.solve(&b).unwrap(), &b).unwrap()
}

fn report(solver: &Solver) -> &RunReport {
    solver.stats().report.as_ref().expect("a multi-rank run reports per rank")
}

fn residual_ok(got: f64, golden: f64) -> bool {
    // NaN fails too.
    got <= (10.0 * golden).max(RESIDUAL_FLOOR)
}

/// Every drift of `got` from `want`, one line each.
fn drift(want: &Row, got: &Row) -> Vec<String> {
    let mut out: Vec<String> = KEYS
        .iter()
        .zip(want.exact.iter().zip(&got.exact))
        .filter(|(_, (w, g))| w != g)
        .map(|(key, (w, g))| format!("{key}: golden {w}, measured {g}"))
        .collect();
    for (key, (w, g)) in FLOP_KEYS.iter().zip(want.flops.into_iter().zip(got.flops)) {
        if (w - g).abs() > FLOP_RTOL * w.abs().max(1.0) {
            out.push(format!("{key}: golden {w}, measured {g}"));
        }
    }
    if !residual_ok(got.residual, want.residual) {
        out.push(format!("residual: golden {:e}, measured {:e}", want.residual, got.residual));
    }
    out
}

fn check(name: &str, a: &CscMatrix, want: &Golden) {
    let mut solver = Solver::builder().ranks(RANKS).build(a).unwrap();
    let smoke = row(report(&solver), solver.stats().phases, residual(&solver, a));

    let first = solver.stats().phases;
    for _ in 0..REFACTORS {
        solver.refactor(a).unwrap();
    }
    let refactor = row(report(&solver), solver.stats().phases.since(&first), residual(&solver, a));

    let mut mixed = Solver::builder().ranks(RANKS).precision(Precision::MixedF32).build(a).unwrap();
    for _ in 0..REFACTORS {
        mixed.refactor(a).unwrap();
    }
    let before = mixed.precision_counters();
    let mixed_residual = residual(&mixed, a);
    let after = mixed.precision_counters();
    let m = report(&mixed);
    let mixed_got = [
        m.total_bytes(),
        m.total_mem().plan_bytes,
        after.refine_iters - before.refine_iters,
        before.precision_fallbacks,
        after.probe_skips,
    ];

    let mut fails = Vec::new();
    for (label, w, g) in [("smoke", &want.smoke, &smoke), ("refactor", &want.refactor, &refactor)] {
        for d in drift(w, g) {
            fails.push(format!("{name} {label} row: {d}"));
        }
    }
    for (key, (w, g)) in MIXED_KEYS.iter().zip(want.mixed.iter().zip(&mixed_got)) {
        if w != g {
            fails.push(format!("{name} refactor row: {key}: golden {w}, measured {g}"));
        }
    }
    if !residual_ok(mixed_residual, want.mixed_residual) {
        fails.push(format!(
            "{name} refactor row: mixed_residual: golden {:e}, measured {mixed_residual:e}",
            want.mixed_residual
        ));
    }
    assert!(
        fails.is_empty(),
        "{}\nmeasured rows:\nsmoke: {smoke:?}\nrefactor: {refactor:?}\nmixed: {mixed_got:?}",
        fails.join("\n")
    );

    // Relations every re-baselined row must still satisfy.
    let msgs = refactor.exact[0];
    assert_eq!(m.total_messages(), msgs, "{name}: mixed and f64 traffic differ in messages");
    // Every scatter value narrows 8 -> 4 bytes; headers do not.
    let headers = HEADER_BYTES * msgs;
    assert_eq!(
        mixed_got[0] - headers,
        (refactor.exact[1] - headers) / 2,
        "{name}: mixed payload traffic is not half the f64 traffic"
    );
    assert!(mixed_got[4] > 0, "{name}: steady mixed refactors never skipped the probe");
}

#[test]
fn laplacian_2d() {
    check("laplacian_2d", &gen::laplacian_2d(128, 128), &LAPLACIAN_2D);
}

#[test]
fn circuit() {
    check("circuit", &gen::circuit(6000, 21), &CIRCUIT);
}

#[test]
fn fem_blocked() {
    check("fem_blocked", &gen::fem_blocked(480, 5, 2, 13), &FEM_BLOCKED);
}

#[test]
fn kkt() {
    check("kkt", &gen::kkt(2400, 1120, 7), &KKT);
}

#[test]
fn cage_like() {
    check("cage_like", &gen::cage_like(3200, 17), &CAGE_LIKE);
}

#[test]
fn dense_banded() {
    check("dense_banded", &gen::dense_banded(2000, 24, 0.5, 9), &DENSE_BANDED);
}

/// Per block size `nb`: index searches the three plans avoid, the bytes a
/// pool holds for them (arena plus one slot each), and the FLOPs of one
/// SSSSM call.
const KERNEL_PLANS: [(usize, u64, u64, f64); 4] = [
    (16, 2356, 2308, 2032.0),
    (32, 8024, 5944, 6116.0),
    (64, 1271, 1428, 1338.0),
    (128, 2494, 3090, 2644.0),
];

/// Plans GESSM, TSTRF and SSSSM over one arena, requires each planned
/// kernel to equal `C_V1` bit for bit, and returns the index searches the
/// plans avoid and the bytes a pool holds for them. The operands of the
/// step: a factored diagonal, an upper and a lower panel before and after
/// their solve, and the Schur target of the solved pair.
fn planned_equals_cv1<S: Scalar>(ops: [&CscMatrix<S>; 6], nb: usize, what: &str) -> (u64, u64) {
    let [diag, upper, lower, l_op, u_op, target] = ops;
    let mut scratch = KernelScratch::<S>::with_capacity(nb);
    let mut arena = Vec::new();
    let plans = [
        plan::build_gessm_plan(diag, upper, &mut arena),
        plan::build_tstrf_plan(diag, lower, &mut arena),
        plan::build_ssssm_plan(l_op, u_op, target, &mut arena),
    ]
    .map(|p| p.expect("an nb-row block fits a plan"));
    let [p_gessm, p_tstrf, p_ssssm] = &plans;

    let (mut want, mut got) = (upper.clone(), upper.clone());
    trsm::gessm(diag, &mut want, TrsmVariant::CV1, &mut scratch);
    plan::gessm_planned(diag, &mut got, p_gessm, &arena);
    assert_eq!(want.values(), got.values(), "nb{nb}: planned {what} GESSM diverged");
    let (mut want, mut got) = (lower.clone(), lower.clone());
    trsm::tstrf(diag, &mut want, TrsmVariant::CV1, &mut scratch);
    plan::tstrf_planned(diag, &mut got, p_tstrf, &arena);
    assert_eq!(want.values(), got.values(), "nb{nb}: planned {what} TSTRF diverged");
    let (mut want, mut got) = (target.clone(), target.clone());
    ssssm::ssssm(l_op, u_op, &mut want, SsssmVariant::CV1, &mut scratch);
    plan::ssssm_planned(l_op, u_op, &mut got, p_ssssm, &arena);
    assert_eq!(want.values(), got.values(), "nb{nb}: planned {what} SSSSM diverged");

    let bytes = std::mem::size_of_val(arena.as_slice()) + std::mem::size_of_val(&plans);
    let searches = plans.iter().map(|p| u64::from(p.searches_avoided)).sum();
    (searches, bytes as u64)
}

/// One mid-factorisation scenario per block size of a fixed FEM matrix:
/// the planned GESSM, TSTRF and SSSSM equal `C_V1` bit for bit in f64 and
/// f32, and the f64 plan counters hold their golden values.
#[test]
fn kernel_plans_at_every_block_size() {
    let a = gen::fem_blocked(240, 5, 2, 13);
    let r = pangulu::reorder::reorder_for_lu(&a, pangulu::reorder::FillReducing::NestedDissection)
        .unwrap();
    let fill = pangulu::symbolic::symbolic_fill(&r.matrix).unwrap();
    let filled = fill.filled_matrix(&r.matrix).unwrap();
    for (nb, searches, bytes, ssssm_flops) in KERNEL_PLANS {
        let bm = BlockMatrix::from_filled(&filled, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let mut scratch = KernelScratch::with_capacity(nb);
        let k = (0..bm.nblk())
            .find(|&k| !tg.l_panels[k].is_empty() && !tg.u_panels[k].is_empty())
            .expect("a step with both panel kinds");
        let block = |i, j| bm.block(bm.block_id(i, j).unwrap()).clone();
        let mut diag = block(k, k);
        getrf::getrf(&mut diag, GetrfVariant::CV1, &mut scratch, 1e-12);
        let (i, j) = (tg.l_panels[k][0], tg.u_panels[k][0]);
        let (upper, lower) = (block(k, j), block(i, k));
        let mut l_op = lower.clone();
        trsm::tstrf(&diag, &mut l_op, TrsmVariant::CV1, &mut scratch);
        let mut u_op = upper.clone();
        trsm::gessm(&diag, &mut u_op, TrsmVariant::CV1, &mut scratch);
        let target = bm.block_id(i, j).map_or_else(|| diag.clone(), |id| bm.block(id).clone());
        let ops = [&diag, &upper, &lower, &l_op, &u_op, &target];
        assert_eq!(planned_equals_cv1(ops, nb, "f64"), (searches, bytes), "nb{nb}: plan counters");
        planned_equals_cv1(ops.map(|m| m.cast::<f32>()).each_ref(), nb, "f32");
        let got_flops = flops::ssssm_flops(&l_op, &u_op);
        assert!((got_flops - ssssm_flops).abs() <= FLOP_RTOL * ssssm_flops, "nb{nb}: SSSSM flops");
    }
}

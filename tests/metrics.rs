//! Tests of the per-rank metrics layer (`pangulu-metrics`) as threaded
//! through the distributed factorisation.
//!
//! The determinism contract: for a fixed matrix, grid, owner map and
//! fault plan, every **work** counter in the [`RunReport`] — messages and
//! bytes per edge, tasks by kind, kernel invocations per variant, model
//! FLOPs, perturbed pivots — is identical run to run. Wall-clock readings and scheduling-dependent observables
//! (blocked receives, receive timeouts, queue high-water marks) are not,
//! and `RunReport::without_timings` projects exactly those away.

use std::collections::BTreeSet;
use std::time::Duration;

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::trisolve::{backward_substitute, forward_substitute};
use pangulu::core::BlockMatrix;
use pangulu::kernels::flops;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::metrics::json::Json;
use pangulu::metrics::{EdgeStat, KernelSlot, RunReport};
use pangulu::prelude::Solver;
use pangulu::sparse::gen;
use pangulu::sparse::ops::{ensure_diagonal, relative_residual};
use pangulu::sparse::{CscMatrix, Scalar};

struct Problem {
    a: CscMatrix,
    bm: BlockMatrix,
    tg: TaskGraph,
    sel: KernelSelector,
}

fn problem(seed: u64) -> Problem {
    let a = ensure_diagonal(&gen::random_sparse(80, 0.10, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, 9).unwrap();
    let tg = TaskGraph::build(&bm);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    Problem { a, bm, tg, sel }
}

/// Factor on a 2x2 grid and return (report, factors-as-csc).
fn factor(prob: &Problem, cfg: &FactorConfig) -> (RunReport, CscMatrix) {
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(2, 2), &prob.tg);
    let run = factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, cfg)
        .unwrap_or_else(|e| panic!("factorisation failed: {e}"));
    (run.report, bm.to_csc())
}

/// A delay+reorder plan (no drops): perturbs timing and arrival order
/// without changing which messages exist, so work counters must hold.
fn jitter_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed).with_delays(0.4, Duration::from_micros(300)).with_reordering(3)
}

/// Same seed, grid and fault plan: the timing-free projections of two
/// runs are identical, even though thread interleaving differs.
#[test]
fn work_counters_are_deterministic_under_fault_jitter() {
    let prob = problem(21);
    let cfg = FactorConfig::default().with_fault(jitter_plan(7));
    let (r1, f1) = factor(&prob, &cfg);
    let (r2, f2) = factor(&prob, &cfg);
    assert_eq!(f1.values(), f2.values(), "factors drifted");
    assert_eq!(
        r1.without_timings(),
        r2.without_timings(),
        "work counters drifted between identical runs"
    );
}

/// The timings stripped by the projection are present and sane in the
/// raw report: wall time positive, per-rank busy/sync non-negative and
/// bounded by wall, fractions in [0, 1].
#[test]
fn timings_are_present_and_sane() {
    let prob = problem(22);
    let (r, _) = factor(&prob, &FactorConfig::default());
    assert_eq!(r.ranks, 4);
    assert_eq!(r.per_rank.len(), 4);
    assert!(r.wall_nanos > 0, "wall time missing");
    for rank in &r.per_rank {
        assert!(rank.busy_nanos > 0, "rank {} recorded no busy time", rank.rank);
        assert!(
            rank.busy_nanos + rank.sync_wait_nanos <= 4 * r.wall_nanos,
            "rank {} busy+sync exceeds wall by more than scheduling slack",
            rank.rank
        );
        let cf = rank.compute_fraction();
        let sf = rank.sync_fraction();
        assert!((0.0..=1.0).contains(&cf), "compute fraction {cf}");
        assert!((0.0..=1.0).contains(&sf), "sync fraction {sf}");
        assert!((cf + sf - 1.0).abs() < 1e-9, "fractions must partition busy+sync");
        assert!(rank.kernels.total_nanos() > 0, "rank {} kernels untimed", rank.rank);
    }
    // The projection really does zero every timing field.
    let p = r.without_timings();
    assert_eq!(p.wall_nanos, 0);
    for rank in &p.per_rank {
        assert_eq!(rank.busy_nanos + rank.sync_wait_nanos + rank.max_idle_nanos, 0);
        assert_eq!(rank.kernels.total_nanos(), 0);
    }
}

/// Independent oracle: every task's model FLOPs walked from the block
/// patterns of the precision under test, at test time — the meter and
/// the report only read the task graph's stored counts.
fn operand_walk_flops<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> f64 {
    let mut total = 0.0f64;
    for id in 0..bm.num_blocks() {
        let (bi, bj) = bm.block_coords(id);
        let blk = bm.block(id);
        let diag = bm.block(bm.block_id(bi.min(bj), bi.min(bj)).unwrap());
        total += match bi.cmp(&bj) {
            std::cmp::Ordering::Equal => flops::getrf_flops(blk),
            std::cmp::Ordering::Less => flops::gessm_flops(diag, blk),
            std::cmp::Ordering::Greater => flops::tstrf_flops(diag, blk),
        };
    }
    for &(i, j, k) in &tg.ssssm {
        let a = bm.block(bm.block_id(i, k).unwrap());
        let b = bm.block(bm.block_id(k, j).unwrap());
        total += flops::ssssm_flops(a, b);
    }
    total
}

fn observed_flops_rows<S: Scalar>(prob: &Problem) {
    let bm0 = prob.bm.cast::<S>();
    let expected = operand_walk_flops(&bm0, &prob.tg);
    assert!(expected > 0.0);
    assert_eq!(prob.tg.total_flops(), expected, "task graph disagrees with the walk");
    for (rows, cols) in [(1, 2), (2, 1), (2, 2)] {
        let owners = OwnerMap::balanced(&prob.bm, ProcessGrid::with_shape(rows, cols), &prob.tg);
        let mut bm = bm0.clone();
        let cfg = FactorConfig::default();
        let r = factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, &cfg)
            .unwrap_or_else(|e| panic!("factorisation failed: {e}"))
            .report;
        let tag = format!("{}x{} f{}", rows, cols, 8 * S::WIDTH);
        assert_eq!(r.predicted_flops, expected, "{tag}: prediction changed");
        assert_eq!(r.observed_flops(), expected, "{tag}: observed FLOPs diverge from the model");
    }
}

/// Kernels only ever write inside static block patterns, and the model
/// FLOP counts derive from those same patterns — so the prediction, the
/// task graph's stored counts and an independent operand walk agree
/// *exactly*, and so do the FLOPs the meter observes, on every grid and
/// precision.
#[test]
fn observed_flops_match_prediction_exactly() {
    let prob = problem(23);
    observed_flops_rows::<f64>(&prob);
    observed_flops_rows::<f32>(&prob);
}

/// Task and message accounting is self-consistent: every rank's kernel
/// calls equal its task count, and the global task total matches the
/// task graph.
#[test]
fn task_and_kernel_accounting_agree() {
    let prob = problem(24);
    let (r, _) = factor(&prob, &FactorConfig::default());
    for rank in &r.per_rank {
        assert_eq!(
            rank.kernels.total_calls(),
            rank.tasks.total(),
            "rank {}: kernel calls != tasks executed",
            rank.rank
        );
        let by_class = rank.kernels.calls_by_class();
        assert_eq!(by_class[pangulu::metrics::CLASS_GETRF], rank.tasks.getrf);
        assert_eq!(by_class[pangulu::metrics::CLASS_GESSM], rank.tasks.gessm);
        assert_eq!(by_class[pangulu::metrics::CLASS_TSTRF], rank.tasks.tstrf);
        assert_eq!(by_class[pangulu::metrics::CLASS_SSSSM], rank.tasks.ssssm);
        // Edge stats decompose the rank totals.
        let edge_msgs: u64 = rank.comm.edges.iter().map(|e| e.msgs).sum();
        let edge_bytes: u64 = rank.comm.edges.iter().map(|e| e.bytes).sum();
        assert_eq!(edge_msgs, rank.comm.msgs_sent);
        assert_eq!(edge_bytes, rank.comm.bytes_sent);
    }
    let graph_tasks = prob.tg.num_tasks(prob.bm.num_blocks()) as u64;
    assert_eq!(r.total_tasks().total(), graph_tasks, "ranks executed a different task set");
}

/// The object keys of `doc` and `written`, level by level (an array is
/// described by its first element): the documented schema and the
/// writer's output must name the same keys.
fn assert_same_keys(doc: &Json, written: &Json, path: &str) {
    match (doc, written) {
        (Json::Obj(d), Json::Obj(w)) => {
            let dk: BTreeSet<&str> = d.iter().map(|(k, _)| k.as_str()).collect();
            let wk: BTreeSet<&str> = w.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(dk, wk, "{path}: documented keys vs written keys");
            for (k, v) in d {
                assert_same_keys(v, written.get(k).unwrap(), &format!("{path}.{k}"));
            }
        }
        (Json::Arr(d), Json::Arr(w)) => match (d.first(), w.first()) {
            (Some(d0), Some(w0)) => assert_same_keys(d0, w0, &format!("{path}[0]")),
            _ => panic!("{path}: the documented and written arrays need an element each"),
        },
        (Json::Num(_), Json::Num(_)) | (Json::Str(_), Json::Str(_)) => {}
        _ => panic!("{path}: documented {doc:?} vs written {written:?}"),
    }
}

/// The report a real 2-rank run writes parses as JSON, carries the
/// schema tag and exactly the keys docs/OBSERVABILITY.md documents, per
/// run and per rank, and its counters read back as the report's own.
#[test]
fn report_json_carries_the_documented_schema() {
    let a = gen::circuit(300, 21);
    let solver = Solver::builder().ranks(2).build(&a).unwrap();
    let r = solver.stats().report.as_ref().expect("multi-rank run report");
    let doc = Json::parse(&r.to_json()).expect("the writer emits JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("pangulu-run-report-v1"));

    let page = include_str!("../docs/OBSERVABILITY.md");
    let block = page
        .split("## `pangulu-run-report-v1` schema")
        .nth(1)
        .and_then(|rest| rest.split("```json\n").nth(1))
        .and_then(|rest| rest.split("```").next())
        .expect("docs/OBSERVABILITY.md has the schema block");
    let documented = Json::parse(block).expect("the documented schema is JSON");
    assert_same_keys(&documented, &doc, "report");

    let num = |j: &Json, key: &str| j.req_f64(key).unwrap_or_else(|e| panic!("{e}"));
    for (key, want) in [
        ("ranks", r.ranks as f64),
        ("wall_nanos", r.wall_nanos as f64),
        ("predicted_flops", r.predicted_flops),
        ("scalar_width", r.scalar_width as f64),
        ("precision_fallbacks", r.precision_fallbacks as f64),
        ("probe_skips", r.probe_skips as f64),
        ("observed_flops", r.observed_flops()),
        ("mean_sync_fraction", r.mean_sync_fraction()),
    ] {
        assert_eq!(num(&doc, key), want, "{key}");
    }
    let ranks = doc.get("per_rank").and_then(Json::as_arr).unwrap();
    assert_eq!(ranks.len(), 2);
    for (j, m) in ranks.iter().zip(&r.per_rank) {
        let (tasks, mem, comm) =
            (j.get("tasks").unwrap(), j.get("mem").unwrap(), j.get("comm").unwrap());
        for (obj, key, want) in [
            (j, "rank", m.rank as u64),
            (j, "busy_nanos", m.busy_nanos),
            (j, "sync_wait_nanos", m.sync_wait_nanos),
            (j, "blocked_recvs", m.blocked_recvs),
            (j, "max_idle_nanos", m.max_idle_nanos),
            (j, "perturbed_pivots", m.perturbed_pivots),
            (tasks, "getrf", m.tasks.getrf),
            (tasks, "gessm", m.tasks.gessm),
            (tasks, "tstrf", m.tasks.tstrf),
            (tasks, "ssssm", m.tasks.ssssm),
            (mem, "payload_allocs", m.mem.payload_allocs),
            (mem, "bytes_copied", m.mem.bytes_copied),
            (mem, "pattern_cache_hits", m.mem.pattern_cache_hits),
            (mem, "planned_calls", m.mem.planned_calls),
            (mem, "index_searches_avoided", m.mem.index_searches_avoided),
            (mem, "plan_runs", m.mem.plan_runs),
            (mem, "run_axpy_entries", m.mem.run_axpy_entries),
            (mem, "plan_bytes", m.mem.plan_bytes),
            (mem, "plan_build_ns", m.mem.plan_build_ns),
            (comm, "msgs_sent", m.comm.msgs_sent),
            (comm, "bytes_sent", m.comm.bytes_sent),
            (comm, "recv_timeouts", m.comm.recv_timeouts),
            (comm, "max_queue_depth", m.comm.max_queue_depth),
        ] {
            assert_eq!(obj.req_u64(key).unwrap(), want, "rank {}: {key}", m.rank);
        }
        let edges: Vec<EdgeStat> = comm
            .get("edges")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| EdgeStat {
                to: e.req_u64("to").unwrap() as usize,
                msgs: e.req_u64("msgs").unwrap(),
                bytes: e.req_u64("bytes").unwrap(),
            })
            .collect();
        assert_eq!(edges, m.comm.edges, "rank {}: edges", m.rank);
        let kernels: Vec<(&str, &str, KernelSlot)> = j
            .get("kernels")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|k| {
                let label = |key| k.get(key).and_then(Json::as_str).unwrap();
                let slot = KernelSlot {
                    calls: k.req_u64("calls").unwrap(),
                    nanos: k.req_u64("nanos").unwrap(),
                    flops: num(k, "flops"),
                };
                (label("class"), label("variant"), slot)
            })
            .collect();
        let want: Vec<_> = m.kernels.entries().collect();
        assert_eq!(kernels, want, "rank {}: kernels", m.rank);
    }
}

/// Fig. 13 shape on a 2x2 grid: these matrices are far too small to
/// saturate four ranks, so synchronisation dominates — the mean sync
/// fraction is substantial (well above 20%) yet strictly below 1, and
/// compute still happens on every rank.
#[test]
fn sync_fraction_reproduces_small_matrix_shape() {
    let prob = problem(26);
    let (r, _) = factor(&prob, &FactorConfig::default());
    let sf = r.mean_sync_fraction();
    assert!(sf > 0.2, "2x2 grid on a tiny matrix should be sync-dominated, got {sf}");
    assert!(sf < 1.0, "sync fraction must leave room for compute, got {sf}");
    assert!(r.per_rank.iter().map(|m| m.busy_nanos).sum::<u64>() > 0);
}

/// Metrics off: factors bitwise identical to the metered run, kernel
/// tallies empty, while the always-on busy/sync and comm counters
/// remain (they predate the metrics layer and feed `DistStats`).
#[test]
fn disabled_metrics_change_nothing_but_the_tallies() {
    let prob = problem(27);
    let on = FactorConfig::default();
    let off = FactorConfig::default().with_metrics(false);
    let (r_on, f_on) = factor(&prob, &on);
    let (r_off, f_off) = factor(&prob, &off);
    assert_eq!(f_on.values(), f_off.values(), "metering changed the numerics");
    assert_eq!(r_off.predicted_flops, 0.0);
    assert_eq!(r_off.observed_flops(), 0.0);
    assert_eq!(r_off.total_kernels().total_calls(), 0);
    // Work accounting outside the kernel meter is unaffected.
    assert_eq!(r_on.total_messages(), r_off.total_messages());
    assert_eq!(r_on.total_bytes(), r_off.total_bytes());
    assert_eq!(r_on.total_tasks(), r_off.total_tasks());
    // And the factors still solve the system.
    let b = gen::test_rhs(prob.a.nrows(), 3);
    let mut x = b.clone();
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(2, 2), &prob.tg);
    factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, &off).unwrap();
    forward_substitute(&bm, &mut x);
    backward_substitute(&bm, &mut x);
    assert!(relative_residual(&prob.a, &x, &b).unwrap() < 1e-8);
}

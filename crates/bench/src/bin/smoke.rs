//! `smoke` — fixed-corpus smoke benchmark backing the regression gate.
//!
//! Factors the six-matrix golden corpus (the same generators as
//! `tests/solver_equivalence.rs`, at the scale `bench_refactor` uses) on a
//! 2x2 rank grid, repeats each run
//! `PANGULU_SMOKE_REPS` times (default 3) keeping the minimum wall time,
//! and emits `BENCH_smoke.json` into the data directory
//! (`PANGULU_DATA_DIR` override honoured). The JSON carries, per matrix:
//!
//! * wall/numeric seconds (min over reps) plus the per-rank busy and
//!   sync-wait breakdown from the [`pangulu_metrics::RunReport`];
//! * the relative residual of a solve against a fixed right-hand side;
//! * deterministic work counters (messages, bytes, tasks, kernel calls,
//!   copy/alloc counters, observed and model FLOPs) that the gate
//!   compares exactly.
//!
//! `scripts/bench_compare.sh` diffs a fresh emission against the
//! checked-in baseline `data/BENCH_smoke.json`; see docs/OBSERVABILITY.md.

use std::time::Instant;

use pangulu_bench::{data_dir, secs, smoke_corpus_scaled};
use pangulu_core::solver::Solver;
use pangulu_metrics::json::Json;
use pangulu_metrics::{PhaseCounters, RunReport};
use pangulu_sparse::{gen, ops, CscMatrix};

/// Rank grid used for every smoke run: 2x2, the smallest grid that
/// exercises row *and* column communication.
const RANKS: usize = 4;

/// Corpus scale of the committed baseline. At scale 1 the six full
/// pipelines total under 0.2 s since the reordering phase became
/// near-linear, and the gate's fixed 10 ms slack then lets a 1.2x slowdown
/// through (`bench_compare --self-test`); at scale 2 they total ~0.7 s.
const CORPUS_SCALE: usize = 2;

/// JSON schema tag checked by `bench_compare`.
pub const SCHEMA: &str = "pangulu-bench-smoke-v1";

fn reps() -> usize {
    std::env::var("PANGULU_SMOKE_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(3)
}

struct SmokeResult {
    name: &'static str,
    n: usize,
    nnz: usize,
    wall_seconds: f64,
    numeric_seconds: f64,
    residual: f64,
    report: RunReport,
    phases: PhaseCounters,
}

fn run_one(name: &'static str, a: &CscMatrix, reps: usize) -> SmokeResult {
    let mut best_wall = f64::INFINITY;
    let mut best_numeric = f64::INFINITY;
    let mut best: Option<(RunReport, f64)> = None;
    let mut phases = PhaseCounters::default();
    for _ in 0..reps {
        let start = Instant::now();
        let solver = Solver::builder()
            .ranks(RANKS)
            .build(a)
            .unwrap_or_else(|e| panic!("{name}: factorisation failed: {e}"));
        let wall = secs(start.elapsed());
        let stats = solver.stats();
        let numeric = secs(stats.numeric_time);
        best_numeric = best_numeric.min(numeric);
        if wall < best_wall {
            best_wall = wall;
            let b = gen::test_rhs(a.nrows(), 11);
            let x = solver.solve(&b).unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
            let resid = ops::relative_residual(a, &x, &b).expect("residual");
            let report = stats
                .report
                .clone()
                .unwrap_or_else(|| panic!("{name}: multi-rank run produced no RunReport"));
            best = Some((report, resid));
            phases = stats.phases;
        }
    }
    let (report, residual) = best.expect("at least one rep");
    SmokeResult {
        name,
        n: a.nrows(),
        nnz: a.nnz(),
        wall_seconds: best_wall,
        numeric_seconds: best_numeric,
        residual,
        report,
        phases,
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn matrix_json(r: &SmokeResult) -> Json {
    let tally = r.report.total_kernels();
    let by_class = tally.calls_by_class();
    let tasks = r.report.total_tasks();
    let mem = r.report.total_mem();
    let classes = pangulu_metrics::CLASS_LABELS
        .iter()
        .zip(by_class)
        .map(|(label, calls)| (label.to_string(), num(calls as f64)))
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(r.name.into())),
        ("n".into(), num(r.n as f64)),
        ("nnz".into(), num(r.nnz as f64)),
        ("wall_seconds".into(), num(r.wall_seconds)),
        ("numeric_seconds".into(), num(r.numeric_seconds)),
        ("busy_seconds".into(), num(r.report.busy_seconds())),
        ("sync_wait_seconds".into(), num(r.report.sync_wait_seconds())),
        ("mean_sync_fraction".into(), num(r.report.mean_sync_fraction())),
        ("residual".into(), num(r.residual)),
        ("msgs".into(), num(r.report.total_messages() as f64)),
        ("bytes".into(), num(r.report.total_bytes() as f64)),
        ("tasks".into(), num(tasks.total() as f64)),
        ("kernel_calls".into(), num(tally.total_calls() as f64)),
        ("kernel_calls_by_class".into(), Json::Obj(classes)),
        ("bytes_copied".into(), num(mem.bytes_copied as f64)),
        ("payload_allocs".into(), num(mem.payload_allocs as f64)),
        ("pattern_cache_hits".into(), num(mem.pattern_cache_hits as f64)),
        ("planned_calls".into(), num(mem.planned_calls as f64)),
        ("index_searches_avoided".into(), num(mem.index_searches_avoided as f64)),
        ("plan_bytes".into(), num(mem.plan_bytes as f64)),
        ("plan_runs".into(), num(mem.plan_runs as f64)),
        ("run_axpy_entries".into(), num(mem.run_axpy_entries as f64)),
        ("reorder_runs".into(), num(r.phases.reorder_runs as f64)),
        ("symbolic_runs".into(), num(r.phases.symbolic_runs as f64)),
        ("preprocess_runs".into(), num(r.phases.preprocess_runs as f64)),
        ("numeric_runs".into(), num(r.phases.numeric_runs as f64)),
        ("analysis_reuses".into(), num(r.phases.analysis_reuses as f64)),
        // Gated exactly: the smoke arm runs the non-stealing Priority
        // policy, so both stay deterministically zero.
        ("steals".into(), num(r.report.total_sched().steals as f64)),
        ("steal_bytes".into(), num(r.report.total_sched().steal_bytes as f64)),
        // Gated exactly: the smoke arm runs the in-process channel
        // transport, so the codec counters stay deterministically zero —
        // a nonzero value means envelopes were serialised needlessly.
        (
            "frames_sent".into(),
            num(r.report.per_rank.iter().map(|p| p.comm.frames_sent).sum::<u64>() as f64),
        ),
        (
            "codec_bytes_encoded".into(),
            num(r.report.per_rank.iter().map(|p| p.comm.codec_bytes_encoded).sum::<u64>() as f64),
        ),
        ("observed_flops".into(), num(r.report.observed_flops())),
        ("predicted_flops".into(), num(r.report.predicted_flops)),
    ])
}

fn main() {
    let reps = reps();
    let mut results = Vec::new();
    for (name, a) in smoke_corpus_scaled(CORPUS_SCALE) {
        let r = run_one(name, &a, reps);
        println!(
            "{:<14} n {:>5}  nnz {:>6}  wall {:>8.4}s  sync {:>5.1}%  resid {:.3e}",
            r.name,
            r.n,
            r.nnz,
            r.wall_seconds,
            100.0 * r.report.mean_sync_fraction(),
            r.residual
        );
        results.push(r);
    }
    let total_wall: f64 = results.iter().map(|r| r.wall_seconds).sum();
    println!("total wall {total_wall:.4}s over {} matrices ({reps} reps, min)", results.len());

    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ranks".into(), num(RANKS as f64)),
        ("reps".into(), num(reps as f64)),
        ("total_wall_seconds".into(), num(total_wall)),
        ("matrices".into(), Json::Arr(results.iter().map(matrix_json).collect())),
    ]);
    let dir = data_dir();
    std::fs::create_dir_all(&dir).expect("create data dir");
    let path = dir.join("BENCH_smoke.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_smoke.json");
    println!("wrote {}", path.display());
}

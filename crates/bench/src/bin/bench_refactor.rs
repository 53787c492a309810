//! `bench_refactor` — steady-state refactorisation benchmark backing the
//! analyze/factor regression gate.
//!
//! For every matrix of the shared smoke corpus, factors once on a 2x2
//! rank grid (the full five-phase pipeline), then calls
//! [`Solver::refactor`] `PANGULU_REFACTOR_REPS` times (default 5, so the
//! default probe cadence of 4 shows both skipped and mid-sequence probed
//! refactorisations) with
//! the same values and keeps the minimum steady-state wall time. The
//! emitted `BENCH_refactor.json` carries, per matrix:
//!
//! * `wall_first_seconds` (full pipeline) vs `wall_seconds` (steady-state
//!   refactorisation minimum) and their ratio `speedup`;
//! * the phase counters **measured over the refactorisation reps only**
//!   (via [`PhaseCounters::since`]): a correct numeric-only path reports
//!   `reorder_runs = symbolic_runs = preprocess_runs = 0` and
//!   `numeric_runs = analysis_reuses = reps`, and `bench_compare` gates
//!   those exactly — any recomputed analysis work is a hard failure;
//! * the deterministic work counters of one steady-state run (messages,
//!   bytes, tasks, kernel calls, copy/alloc counters, kernel-plan
//!   counters), also gated exactly. With the executor workspace reused,
//!   every receive in steady state is a pattern-cache hit;
//! * a planned-vs-unplanned A/B: a second solver whose planned gates
//!   are closed (`Thresholds::unplanned()`) refactors the same values, **interleaved** rep-for-rep with the
//!   planned solver so both see the same machine state, and the minimum
//!   unplanned wall time is reported as `wall_unplanned_seconds` next to
//!   the planned `wall_seconds` (ratio in `planned_speedup`);
//! * a scheduling-policy A/B: a third solver runs `PriorityStealing`
//!   (work stealing plus lookahead), again interleaved rep-for-rep, and
//!   reports `ab_wall_seconds` plus the scheduler counters summed over
//!   its reps (`ab_steals`, `ab_steal_bytes`, `ab_lookahead_hits`).
//!   These `ab_*` keys are **not** exact-gated — steal placement and
//!   lookahead hits are timing-dependent — but the harness asserts that
//!   stealing and lookahead actually engaged (`ab_steals > 0`,
//!   `ab_lookahead_hits > 0`) on the kkt and circuit matrices. The
//!   gated arms run the default non-stealing `Priority` policy, so
//!   their `steals`/`steal_bytes` stay deterministically zero;
//! * a transport A/B: a fourth solver refactors the same values over a
//!   byte transport — TCP sockets when the environment allows binding
//!   localhost listeners, otherwise (loudly logged) the shared-memory
//!   rings, which charge the codec identically — again interleaved
//!   rep-for-rep. `transport_ab_wall_seconds` is informational (socket
//!   latency is machine state), but the arm's `frames_sent` and
//!   `codec_bytes_encoded` are deterministic — one frame per mailbox
//!   send, every scatter payload encoded exactly once — and
//!   `bench_compare` gates them exactly on either fallback;
//! * a precision A/B: a fifth solver factors in mixed precision
//!   (f32 factors, iteratively refined solves), again interleaved
//!   rep-for-rep. `mixed_wall_seconds` and `mixed_speedup` are
//!   informational; `mixed_bytes` and `mixed_plan_bytes` are
//!   deterministic (every scatter value narrowed 8 to 4 bytes, plan
//!   indices u32 to u16) and exact-gated along with the refinement
//!   iteration count of one solve (`refine_iters`) and
//!   `precision_fallbacks` (must be 0 — the whole corpus is
//!   well-conditioned enough for the f32 path). The mixed arm's
//!   refactors run under the default acceptance-probe cadence, so
//!   `probe_skips` (exact-gated) counts the probe solves the steady
//!   state never paid, and the harness asserts it is non-zero;
//! * run-segmented planned replay: `plan_runs` and `run_axpy_entries`
//!   (both exact-gated) record how many contiguous-run segments the
//!   plans compressed to and how many entries executed as slice-loop
//!   continuations rather than per-entry scatter.
//!
//! `--scale <k>` (or `PANGULU_BENCH_SCALE`) multiplies every corpus
//! generator's leading dimension. The default — and the committed-
//! baseline configuration — is **scale 2**: past the crossover where
//! the mixed arm's halved memory traffic wins in wall time
//! (`mixed_speedup > 1` on the bandwidth-bound matrices; see the
//! honest-accounting notes in docs/PRECISION.md — matrices whose f32
//! factors land in the subnormal range stay below 1). `--scale 1`
//! reproduces the historical smoke-sized corpus.
//!
//! `scripts/bench_compare.sh` diffs a fresh emission against the
//! checked-in baseline `data/BENCH_refactor.json`.

use std::time::Instant;

use pangulu_bench::{data_dir, secs, smoke_corpus_scaled};
use pangulu_comm::{sockets_available, TransportKind};
use pangulu_core::solver::{Precision, Solver};
use pangulu_core::SchedulePolicy;
use pangulu_kernels::Thresholds;
use pangulu_metrics::json::Json;
use pangulu_metrics::{PhaseCounters, RunReport};
use pangulu_sparse::{gen, ops, CscMatrix};

/// Rank grid used for every run: 2x2, matching the smoke benchmark.
const RANKS: usize = 4;

/// JSON schema tag checked by `bench_compare`.
pub const SCHEMA: &str = "pangulu-bench-refactor-v1";

fn reps() -> usize {
    std::env::var("PANGULU_REFACTOR_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5)
}

/// Default corpus scale: past the mixed-precision wall-time crossover on
/// the bandwidth-bound corpus matrices, small enough for every CI run.
const DEFAULT_SCALE: usize = 2;

/// Corpus scale factor: `--scale <k>` argument, else `PANGULU_BENCH_SCALE`,
/// else [`DEFAULT_SCALE`] — the committed-baseline configuration
/// (`scripts/bench_compare.sh` passes no arguments, so the checked-in
/// `BENCH_refactor.json` is always the default-scale corpus).
fn corpus_scale() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&k| k >= 1)
                .expect("--scale needs a positive integer");
        }
    }
    std::env::var("PANGULU_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(DEFAULT_SCALE)
}

struct RefactorResult {
    name: &'static str,
    n: usize,
    nnz: usize,
    /// Full-pipeline wall time of the first factorisation.
    wall_first_seconds: f64,
    /// Minimum steady-state refactorisation wall time (plans on).
    wall_seconds: f64,
    /// Minimum steady-state wall time with kernel plans off, measured
    /// interleaved with the planned reps.
    wall_unplanned_seconds: f64,
    /// Minimum steady-state wall time under `PriorityStealing`,
    /// measured interleaved with the other two arms.
    ab_wall_seconds: f64,
    /// Scheduler counters summed over the stealing arm's reps.
    ab_steals: u64,
    ab_steal_bytes: u64,
    ab_lookahead_hits: u64,
    /// Which byte transport the A/B arm actually ran ("tcp" or "shm").
    transport_ab: TransportKind,
    /// Minimum steady-state wall time over the byte transport,
    /// interleaved with the channel arms.
    transport_ab_wall_seconds: f64,
    /// Codec counters of one steady-state byte-transport run; both are
    /// deterministic and identical between the TCP and shm fallbacks.
    frames_sent: u64,
    codec_bytes_encoded: u64,
    /// Mixed-precision A/B arm: minimum steady-state wall time,
    /// deterministic traffic/plan footprint, and the refinement work of
    /// one solve against the f32 factors.
    mixed_wall_seconds: f64,
    mixed_bytes: u64,
    mixed_plan_bytes: u64,
    mixed_msgs: u64,
    mixed_residual: f64,
    refine_iters: u64,
    precision_fallbacks: u64,
    /// Probe solves the mixed arm's cadence skipped across its reps
    /// (deterministic: reps and cadence are both fixed).
    probe_skips: u64,
    /// Minimum numeric-phase time across the refactorisation reps.
    numeric_seconds: f64,
    residual: f64,
    /// Per-rank report of the last (steady-state) refactorisation.
    report: RunReport,
    /// Phase counters over the refactorisation reps only.
    phases: PhaseCounters,
}

/// The byte transport for the A/B arm: TCP when the environment lets us
/// bind localhost listeners, otherwise the shared-memory rings (which
/// drive the same codec and charge identical deterministic counters).
fn ab_transport() -> TransportKind {
    if sockets_available() {
        TransportKind::Tcp
    } else {
        eprintln!(
            "bench_refactor: note: cannot bind localhost sockets; \
             transport A/B arm falls back to shm rings"
        );
        TransportKind::Shm
    }
}

fn run_one(name: &'static str, a: &CscMatrix, reps: usize, ab: TransportKind) -> RefactorResult {
    let start = Instant::now();
    let mut solver = Solver::builder()
        .ranks(RANKS)
        .build(a)
        .unwrap_or_else(|e| panic!("{name}: factorisation failed: {e}"));
    let wall_first = secs(start.elapsed());
    let first = solver.stats().phases;
    let mut unplanned = Solver::builder()
        .ranks(RANKS)
        .thresholds(Thresholds::unplanned())
        .build(a)
        .unwrap_or_else(|e| panic!("{name}: unplanned factorisation failed: {e}"));
    let mut stealing = Solver::builder()
        .ranks(RANKS)
        .schedule_policy(SchedulePolicy::PriorityStealing)
        .build(a)
        .unwrap_or_else(|e| panic!("{name}: stealing factorisation failed: {e}"));
    let mut wired = Solver::builder()
        .ranks(RANKS)
        .transport(ab)
        .build(a)
        .unwrap_or_else(|e| panic!("{name}: {ab} factorisation failed: {e}"));
    let mut mixed = Solver::builder()
        .ranks(RANKS)
        .precision(Precision::MixedF32)
        .build(a)
        .unwrap_or_else(|e| panic!("{name}: mixed factorisation failed: {e}"));

    let mut best_wall = f64::INFINITY;
    let mut best_unplanned = f64::INFINITY;
    let mut best_stealing = f64::INFINITY;
    let mut best_wired = f64::INFINITY;
    let mut best_mixed = f64::INFINITY;
    let mut best_numeric = f64::INFINITY;
    let mut ab_steals = 0u64;
    let mut ab_steal_bytes = 0u64;
    let mut ab_lookahead_hits = 0u64;
    for _ in 0..reps {
        // Interleave the A/B arms so cache and frequency state are
        // shared; min-of-reps on each side.
        let t = Instant::now();
        solver.refactor(a).unwrap_or_else(|e| panic!("{name}: refactorisation failed: {e}"));
        best_wall = best_wall.min(secs(t.elapsed()));
        best_numeric = best_numeric.min(secs(solver.stats().numeric_time));
        let t = Instant::now();
        unplanned
            .refactor(a)
            .unwrap_or_else(|e| panic!("{name}: unplanned refactorisation failed: {e}"));
        best_unplanned = best_unplanned.min(secs(t.elapsed()));
        let t = Instant::now();
        stealing
            .refactor(a)
            .unwrap_or_else(|e| panic!("{name}: stealing refactorisation failed: {e}"));
        best_stealing = best_stealing.min(secs(t.elapsed()));
        let sched = stealing
            .stats()
            .report
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: stealing run produced no RunReport"))
            .total_sched();
        ab_steals += sched.steals;
        ab_steal_bytes += sched.steal_bytes;
        ab_lookahead_hits += sched.lookahead_hits;
        let t = Instant::now();
        wired.refactor(a).unwrap_or_else(|e| panic!("{name}: {ab} refactorisation failed: {e}"));
        best_wired = best_wired.min(secs(t.elapsed()));
        let t = Instant::now();
        mixed.refactor(a).unwrap_or_else(|e| panic!("{name}: mixed refactorisation failed: {e}"));
        best_mixed = best_mixed.min(secs(t.elapsed()));
    }
    let wired_report = wired
        .stats()
        .report
        .clone()
        .unwrap_or_else(|| panic!("{name}: {ab} refactorisation produced no RunReport"));
    let frames_sent: u64 = wired_report.per_rank.iter().map(|r| r.comm.frames_sent).sum();
    let codec_bytes_encoded: u64 =
        wired_report.per_rank.iter().map(|r| r.comm.codec_bytes_encoded).sum();

    let stats = solver.stats();
    let phases = stats.phases.since(&first);
    let report = stats
        .report
        .clone()
        .unwrap_or_else(|| panic!("{name}: multi-rank refactorisation produced no RunReport"));
    let b = gen::test_rhs(a.nrows(), 11);
    let x = solver.solve(&b).unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
    let residual = ops::relative_residual(a, &x, &b).expect("residual");

    let mixed_report = mixed
        .stats()
        .report
        .clone()
        .unwrap_or_else(|| panic!("{name}: mixed refactorisation produced no RunReport"));
    let before = mixed.precision_counters();
    let xm = mixed.solve(&b).unwrap_or_else(|e| panic!("{name}: mixed solve failed: {e}"));
    let mixed_residual = ops::relative_residual(a, &xm, &b).expect("mixed residual");
    let refine_iters = mixed.precision_counters().refine_iters - before.refine_iters;
    let probe_skips = mixed.precision_counters().probe_skips;
    RefactorResult {
        name,
        n: a.nrows(),
        nnz: a.nnz(),
        wall_first_seconds: wall_first,
        wall_seconds: best_wall,
        wall_unplanned_seconds: best_unplanned,
        ab_wall_seconds: best_stealing,
        ab_steals,
        ab_steal_bytes,
        ab_lookahead_hits,
        transport_ab: ab,
        transport_ab_wall_seconds: best_wired,
        frames_sent,
        codec_bytes_encoded,
        mixed_wall_seconds: best_mixed,
        mixed_bytes: mixed_report.total_bytes(),
        mixed_plan_bytes: mixed_report.total_mem().plan_bytes,
        mixed_msgs: mixed_report.total_messages(),
        mixed_residual,
        refine_iters,
        precision_fallbacks: before.precision_fallbacks,
        probe_skips,
        numeric_seconds: best_numeric,
        residual,
        report,
        phases,
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn matrix_json(r: &RefactorResult) -> Json {
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
        ("wall_first_seconds".into(), num(r.wall_first_seconds)),
        ("wall_seconds".into(), num(r.wall_seconds)),
        ("wall_unplanned_seconds".into(), num(r.wall_unplanned_seconds)),
        ("speedup".into(), num(r.wall_first_seconds / r.wall_seconds)),
        ("planned_speedup".into(), num(r.wall_unplanned_seconds / r.wall_seconds)),
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
        // Gated exactly: the gated arms run the non-stealing Priority
        // policy, so both stay deterministically zero.
        ("steals".into(), num(r.report.total_sched().steals as f64)),
        ("steal_bytes".into(), num(r.report.total_sched().steal_bytes as f64)),
        // Scheduling-policy A/B (PriorityStealing arm) — informational,
        // never exact-gated: steal placement is timing-dependent.
        ("ab_wall_seconds".into(), num(r.ab_wall_seconds)),
        ("ab_steals".into(), num(r.ab_steals as f64)),
        ("ab_steal_bytes".into(), num(r.ab_steal_bytes as f64)),
        ("ab_lookahead_hits".into(), num(r.ab_lookahead_hits as f64)),
        // Transport A/B (byte-transport arm). The wall is informational;
        // the codec counters are deterministic and exact-gated — they
        // are identical whether the arm ran TCP or the shm fallback.
        ("transport_ab".into(), Json::Str(r.transport_ab.to_string())),
        ("transport_ab_wall_seconds".into(), num(r.transport_ab_wall_seconds)),
        ("frames_sent".into(), num(r.frames_sent as f64)),
        ("codec_bytes_encoded".into(), num(r.codec_bytes_encoded as f64)),
        // Precision A/B (mixed f32 arm). Walls and speedup are
        // informational; the byte/plan footprints and refinement work
        // are deterministic and exact-gated.
        ("mixed_wall_seconds".into(), num(r.mixed_wall_seconds)),
        ("mixed_speedup".into(), num(r.wall_seconds / r.mixed_wall_seconds)),
        ("mixed_residual".into(), num(r.mixed_residual)),
        ("mixed_bytes".into(), num(r.mixed_bytes as f64)),
        ("mixed_plan_bytes".into(), num(r.mixed_plan_bytes as f64)),
        ("refine_iters".into(), num(r.refine_iters as f64)),
        ("precision_fallbacks".into(), num(r.precision_fallbacks as f64)),
        ("probe_skips".into(), num(r.probe_skips as f64)),
        ("observed_flops".into(), num(r.report.observed_flops())),
        ("predicted_flops".into(), num(r.report.predicted_flops)),
    ])
}

fn main() {
    let reps = reps();
    let scale = corpus_scale();
    let ab = ab_transport();
    let mut results = Vec::new();
    for (name, a) in smoke_corpus_scaled(scale) {
        let r = run_one(name, &a, reps, ab);
        println!(
            "{:<14} n {:>5}  nnz {:>6}  first {:>8.4}s  steady {:>8.4}s  ({:>4.1}x)  \
             unplanned {:>8.4}s  resid {:.3e}",
            r.name,
            r.n,
            r.nnz,
            r.wall_first_seconds,
            r.wall_seconds,
            r.wall_first_seconds / r.wall_seconds,
            r.wall_unplanned_seconds,
            r.residual
        );
        assert_eq!(
            (r.phases.reorder_runs, r.phases.symbolic_runs, r.phases.preprocess_runs),
            (0, 0, 0),
            "{name}: steady-state refactorisation recomputed analysis work"
        );
        let mem = r.report.total_mem();
        assert!(mem.planned_calls > 0, "{name}: planned run made no planned kernel calls");
        assert!(mem.index_searches_avoided > 0, "{name}: plans avoided no index searches");
        let sched = r.report.total_sched();
        assert_eq!(
            (sched.steals, sched.steal_bytes),
            (0, 0),
            "{name}: a stealing policy leaked into the gated (Priority) arm"
        );
        if matches!(name, "kkt" | "circuit") {
            assert!(r.ab_steals > 0, "{name}: stealing arm never stole a task");
            assert!(r.ab_lookahead_hits > 0, "{name}: stealing arm never used lookahead");
        }
        assert_eq!(
            r.frames_sent,
            r.report.total_messages(),
            "{name}: byte transport framed a different message count than the channel arm"
        );
        assert!(r.codec_bytes_encoded > 0, "{name}: byte transport encoded nothing");
        assert_eq!(r.precision_fallbacks, 0, "{name}: mixed arm fell back to f64");
        assert!(
            r.probe_skips > 0,
            "{name}: steady-state mixed refactors never skipped the acceptance probe"
        );
        assert!(mem.plan_runs > 0, "{name}: planned replay recorded no run segments");
        assert!(
            mem.run_axpy_entries > 0,
            "{name}: planned replay executed no entries as slice-loop continuations"
        );
        assert!(
            r.mixed_residual < 1e-11,
            "{name}: refined mixed residual {} misses the f64 gate",
            r.mixed_residual
        );
        assert_eq!(
            r.mixed_msgs,
            r.report.total_messages(),
            "{name}: mixed arm sent a different message count than the f64 arm"
        );
        // Every scatter value narrows 8 -> 4 bytes; the 24-byte
        // per-message headers are precision-independent.
        let headers = 24 * r.mixed_msgs;
        assert_eq!(
            r.mixed_bytes - headers,
            (r.report.total_bytes() - headers) / 2,
            "{name}: mixed payload traffic is not half the f64 traffic"
        );
        // The arena (u16 vs u32 indices) halves exactly; the per-plan
        // offset structs are precision-independent, so the total shrinks
        // strictly but lands between 1x and 2x depending on how much of
        // the footprint the arena is.
        println!(
            "    plan bytes {} -> {} ({:.2}x), payload bytes {} -> {} ({:.2}x)",
            r.report.total_mem().plan_bytes,
            r.mixed_plan_bytes,
            r.report.total_mem().plan_bytes as f64 / r.mixed_plan_bytes as f64,
            r.report.total_bytes(),
            r.mixed_bytes,
            r.report.total_bytes() as f64 / r.mixed_bytes as f64,
        );
        assert!(
            r.mixed_plan_bytes < r.report.total_mem().plan_bytes,
            "{name}: u16 plan indices did not shrink the plan footprint"
        );
        results.push(r);
    }
    let total_wall: f64 = results.iter().map(|r| r.wall_seconds).sum();
    println!(
        "total steady wall {total_wall:.4}s over {} matrices ({reps} refactor reps, min)",
        results.len()
    );

    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ranks".into(), num(RANKS as f64)),
        ("reps".into(), num(reps as f64)),
        ("scale".into(), num(scale as f64)),
        ("total_wall_seconds".into(), num(total_wall)),
        ("matrices".into(), Json::Arr(results.iter().map(matrix_json).collect())),
    ]);
    let dir = data_dir();
    std::fs::create_dir_all(&dir).expect("create data dir");
    let path = dir.join("BENCH_refactor.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_refactor.json");
    println!("wrote {}", path.display());
}

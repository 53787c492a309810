//! Runs one workload: the untraced run through the `Solver` API that
//! yields the end-to-end metrics, and the traced run that replays every
//! op through [`crate::pipeline::Hand`] for the per-layer metrics.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use pangulu_core::Solver;
use pangulu_sparse::ops::relative_residual;
use pangulu_sparse::CscMatrix;

use crate::heap::peak_bytes;
use crate::layers::{
    kernel_model, mailbox_roundtrip_us, median_block_values, DistSample, NumericSample,
    KERNEL_CALLS, KERNEL_FLOPS,
};
use crate::pipeline::Hand;
use crate::report::{Metric, Outcome, PER_LAYER};
use crate::stats::{median, summarize, tail};
use crate::trace::{per_op_seconds, Span, Tracer, SETUP_OP};
use crate::workload::{Inputs, Op, Spec};

/// An op fails above this relative residual `‖b − A x‖ / ‖b‖`.
pub const RESIDUAL_TOL: f64 = 1e-9;
/// Untimed ops at the end of set-up, so the lazy scatter map and the
/// kernel plans exist before the first timed op.
const WARMUP_OPS: usize = 2;
/// Set-up is repeated and `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Floor on the op count of a `--seconds` run.
const MIN_TIMED_OPS: usize = 5;
/// Op count of a traced run without `--seconds`.
const TRACED_OPS: usize = 10;
/// Numeric-call repetitions behind each side of a layer probe ratio.
const PROBE_REPS: usize = 6;

/// Deliberately bad input for one op (op index 1), to prove failures count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A right-hand side one entry too long.
    RhsLen,
    /// A NaN in the op's matrix, or in its right-hand side where the op takes no matrix.
    NanInput,
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Time-box of the op loop; `None` runs the workload's fixed op count.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub inject: Option<Fault>,
}

/// One op's inputs, with `inject` applied on op 1.
fn op_inputs<'a>(
    spec: &Spec,
    inputs: &'a Inputs,
    op: usize,
    inject: Option<Fault>,
) -> (Cow<'a, CscMatrix>, Cow<'a, [Vec<f64>]>) {
    let (mut a, mut rhs) = (Cow::Borrowed(inputs.mat(op)), Cow::Borrowed(inputs.rhs(op)));
    if op == 1 {
        match inject {
            Some(Fault::RhsLen) => rhs.to_mut()[0].push(1.0),
            Some(Fault::NanInput) if matches!(spec.op, Op::SolveMulti { .. }) => {
                rhs.to_mut()[0][0] = f64::NAN;
            }
            Some(Fault::NanInput) => a.to_mut().values_mut()[0] = f64::NAN,
            None => {}
        }
    }
    (a, rhs)
}

fn build_solver(spec: &Spec, a: &CscMatrix) -> Result<Solver, String> {
    Solver::builder()
        .ranks(spec.ranks)
        .precision(spec.precision)
        .build(a)
        .map_err(|e| e.to_string())
}

/// The library calls of one op through the `Solver` API.
fn solver_calls(
    spec: &Spec,
    solver: &mut Option<Solver>,
    a: &CscMatrix,
    rhs: &[Vec<f64>],
) -> Result<Vec<Vec<f64>>, String> {
    match spec.op {
        Op::OneShot => {
            let s = solver.insert(build_solver(spec, a)?);
            Ok(vec![s.solve(&rhs[0]).map_err(|e| e.to_string())?])
        }
        Op::Refactor => {
            let s = solver.as_mut().expect("set-up built the solver");
            s.refactor(a).map_err(|e| e.to_string())?;
            Ok(vec![s.solve(&rhs[0]).map_err(|e| e.to_string())?])
        }
        Op::SolveMulti { .. } => {
            let s = solver.as_ref().expect("set-up built the solver");
            s.solve_multi(rhs).map_err(|e| e.to_string())
        }
    }
}

/// One timed op through the `Solver`: seconds and the solutions.
fn solver_op(
    spec: &Spec,
    solver: &mut Option<Solver>,
    a: &CscMatrix,
    rhs: &[Vec<f64>],
) -> (f64, Result<Vec<Vec<f64>>, String>) {
    if spec.op == Op::OneShot {
        // The previous op's solver is freed outside the timed region.
        *solver = None;
    }
    let t = Instant::now();
    let out = solver_calls(spec, solver, a, rhs);
    (t.elapsed().as_secs_f64(), std::hint::black_box(out))
}

/// Whether an op's answer counts: it returned, every value is finite and
/// every residual is within [`RESIDUAL_TOL`].
fn op_ok(a: &CscMatrix, rhs: &[Vec<f64>], out: &Result<Vec<Vec<f64>>, String>) -> bool {
    let Ok(xs) = out else { return false };
    xs.len() == rhs.len()
        && xs.iter().zip(rhs).all(|(x, b)| {
            x.iter().all(|v| v.is_finite())
                && matches!(relative_residual(a, x, b), Ok(r) if r <= RESIDUAL_TOL)
        })
}

/// Generates the inputs and brings the `Solver` to steady state.
fn set_up(spec: &Spec, seed: u64) -> Result<(Inputs, Option<Solver>), String> {
    let inputs = Inputs::generate(spec, seed);
    let mut solver = match spec.op {
        Op::OneShot => None,
        Op::Refactor | Op::SolveMulti { .. } => Some(build_solver(spec, inputs.mat(0))?),
    };
    for w in 0..WARMUP_OPS {
        solver_calls(spec, &mut solver, inputs.mat(w), inputs.rhs(w))?;
    }
    Ok((inputs, solver))
}

/// Whether the op loop goes on to op `done` (0-based).
fn more_ops(done: usize, started: Instant, fixed: usize, seconds: Option<f64>) -> bool {
    match seconds {
        Some(s) => done < MIN_TIMED_OPS || started.elapsed().as_secs_f64() < s,
        None => done < fixed,
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Counts the `Solver` reports that must repeat exactly for a fixed
/// workload, seed and op count.
fn solver_counts(solver: &Solver, ops: u64) -> Vec<(&'static str, f64)> {
    let st = solver.stats();
    let sym = st.symbolic.expect("every factorisation records its symbolic stats");
    let tasks = match (&st.report, &st.numeric) {
        (Some(r), _) => r.total_tasks().total(),
        (None, Some(ns)) => ns.kernel_counts.iter().sum::<usize>() as u64,
        (None, None) => 0,
    };
    let (msgs, bytes) =
        st.report.as_ref().map_or((0, 0), |r| (r.total_messages(), r.total_bytes()));
    let pc = solver.precision_counters();
    vec![
        ("nnz_lu", sym.nnz_lu as f64),
        ("flops", sym.flops),
        ("nb", st.block_size as f64),
        ("blocks", st.num_blocks as f64),
        ("tasks", tasks as f64),
        ("msgs", msgs as f64),
        ("bytes", bytes as f64),
        ("refine.iters", pc.refine_iters as f64),
        ("refine.solves", pc.refined_solves as f64),
        ("refine.probe_skips", pc.probe_skips as f64),
        ("refine.fallbacks", pc.precision_fallbacks as f64),
        ("ops", ops as f64),
    ]
}

/// The untraced run: `op_s`, `setup_s`, `peak_heap_mb`.
pub fn run_untraced(spec: &Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition first: peak memory is one set-up's.
        drop(state.take());
        let t = Instant::now();
        state = Some(set_up(spec, cfg.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inputs, mut solver) = state.expect("SETUP_REPS > 0");

    let mut op_s = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    while more_ops(op_s.len(), started, spec.ops, cfg.seconds) {
        let (a, rhs) = op_inputs(spec, &inputs, op_s.len(), cfg.inject);
        let (secs, out) = solver_op(spec, &mut solver, &a, &rhs);
        op_s.push(secs);
        if !op_ok(&a, &rhs, &out) {
            failed += 1;
        }
    }

    let op = summarize(&op_s).expect("at least one op ran");
    let setup = summarize(&setup_s).expect("SETUP_REPS > 0");
    let mut extra = vec![
        Metric::new("ops_per_s", op.n as f64 / op_s.iter().sum::<f64>(), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"),
    ];
    if let Some((pct, value)) = tail(&op_s) {
        extra.push(Metric::new("op_s_tail", value, "s"));
        extra.push(Metric::new("tail_pct", f64::from(pct), "%"));
    }
    Ok(Outcome {
        spec: *spec,
        seed: cfg.seed,
        trace: false,
        attempted: op.n as u64,
        failed,
        guard: Vec::new(),
        gated: vec![
            Metric::new("op_s", op.median, "s"),
            Metric::new("setup_s", setup.median, "s"),
            Metric::new("peak_heap_mb", peak_bytes() as f64 / (1u64 << 20) as f64, "MiB"),
        ],
        extra,
        counts: solver.as_ref().map_or_else(Vec::new, |s| solver_counts(s, op.n as u64)),
        samples: vec![("op_s", op), ("setup_s", setup)],
    })
}

/// One traced op through the hand-driven pipeline. Returns the solutions;
/// `hand` holds the pipeline the op ran on (a new one per one-shot op).
fn hand_op(
    spec: &Spec,
    hand: &mut Option<Hand>,
    a: &CscMatrix,
    rhs: &[Vec<f64>],
    tr: &mut Tracer,
) -> Result<Vec<Vec<f64>>, String> {
    if spec.op == Op::OneShot {
        *hand = None;
    }
    let root = tr.begin("op");
    let out: Result<Vec<Vec<f64>>, String> = (|| match spec.op {
        Op::OneShot => {
            let h = hand.insert(Hand::build(a, spec.ranks, spec.precision, tr)?);
            Ok(vec![h.solve(&rhs[0], tr)?])
        }
        Op::Refactor => {
            let h = hand.as_mut().expect("set-up built the pipeline");
            h.refactor(a, tr)?;
            Ok(vec![h.solve(&rhs[0], tr)?])
        }
        Op::SolveMulti { .. } => {
            let h = hand.as_mut().expect("set-up built the pipeline");
            rhs.iter().map(|b| h.solve(b, tr)).collect()
        }
    })();
    tr.end(root);
    std::hint::black_box(out)
}

/// Seconds of the `numeric.steady` spans `f` records on a private tracer.
fn steady_numeric_seconds(
    reps: usize,
    mut f: impl FnMut(usize, &mut Tracer) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut tr = Tracer::default();
    for i in 0..reps {
        f(i, &mut tr)?;
    }
    Ok(tr
        .spans()
        .iter()
        .filter(|s| s.name == "numeric.steady")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect())
}

/// Probes that only make sense for a distributed pipeline: the same
/// matrix through the sequential executor, and the executor with its
/// kernel meter off against on.
struct DistProbes {
    seq_steady_s: f64,
    meter_overhead: f64,
    roundtrip_us: f64,
}

fn dist_probes(spec: &Spec, inputs: &Inputs, hand: &mut Hand) -> Result<DistProbes, String> {
    let mut seq = Hand::build(inputs.mat(0), 1, spec.precision, &mut Tracer::default())?;
    // One extra leading call builds the scatter map and the plans.
    let seq_s = steady_numeric_seconds(PROBE_REPS + 1, |i, tr| seq.refactor(inputs.mat(i), tr))?;
    let mut side = |meter: bool| -> Result<f64, String> {
        hand.meter = meter;
        let s = steady_numeric_seconds(PROBE_REPS, |i, tr| hand.refactor(inputs.mat(i), tr))?;
        Ok(median(&s).expect("PROBE_REPS > 0"))
    };
    let (off, on) = (side(false)?, side(true)?);
    Ok(DistProbes {
        seq_steady_s: median(&seq_s[1..]).expect("PROBE_REPS > 0"),
        meter_overhead: on / off,
        roundtrip_us: mailbox_roundtrip_us(median_block_values(&hand.bm), 2000),
    })
}

/// Compares what the `Solver` and the hand-driven pipeline say they did.
fn count_mismatches(solver: &Solver, hand: &Hand) -> Vec<String> {
    let st = solver.stats();
    let sym = st.symbolic.expect("every factorisation records its symbolic stats");
    let ours = NumericSample::of(&hand.numeric);
    let pc = solver.precision_counters();
    let mut pairs = vec![
        ("nnz_lu", sym.nnz_lu as f64, hand.sym.nnz_lu as f64),
        ("flops", sym.flops, hand.sym.flops),
        ("nb", st.block_size as f64, hand.bm.nb() as f64),
        ("blocks", st.num_blocks as f64, hand.bm.num_blocks() as f64),
        ("refine.iters", pc.refine_iters as f64, hand.refine.refine_iters as f64),
        ("refine.solves", pc.refined_solves as f64, hand.refine.refined_solves as f64),
        ("refine.probe_skips", pc.probe_skips as f64, hand.refine.probe_skips as f64),
    ];
    if let (Some(report), Some(d)) = (&st.report, ours.dist) {
        let t = report.total_tasks();
        pairs.push(("tasks", t.total() as f64, ours.calls.iter().sum::<u64>() as f64));
        pairs.push(("msgs", report.total_messages() as f64, d.msgs as f64));
        pairs.push(("bytes", report.total_bytes() as f64, d.bytes as f64));
    } else {
        let theirs = st.numeric.as_ref().map_or(0, |ns| ns.kernel_counts.iter().sum::<usize>());
        pairs.push(("tasks", theirs as f64, ours.calls.iter().sum::<u64>() as f64));
    }
    pairs
        .into_iter()
        .filter(|(_, a, b)| a.to_bits() != b.to_bits())
        .map(|(name, a, b)| format!("count {name}: solver {a} vs hand-driven {b}"))
        .collect()
}

fn bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The traced run: every op once through the `Solver` (the reference the
/// guard compares against, and the untraced time the overhead is taken
/// over) and once through the hand-driven pipeline under spans.
pub fn run_traced(spec: &Spec, cfg: &RunConfig) -> Result<(Outcome, Vec<Span>), String> {
    let mut tr = Tracer::default();
    let mut guard = Vec::new();
    let (inputs, mut solver) = set_up(spec, cfg.seed)?;

    // The pipeline's own set-up, spans under SETUP_OP.
    let mut hand = match spec.op {
        Op::OneShot => None,
        Op::Refactor | Op::SolveMulti { .. } => {
            Some(Hand::build(inputs.mat(0), spec.ranks, spec.precision, &mut tr)?)
        }
    };
    let mut first_sample = hand.as_ref().map(|h| NumericSample::of(&h.numeric));
    for w in 0..WARMUP_OPS {
        let mut quiet = Tracer::default();
        hand_op(spec, &mut hand, inputs.mat(w), inputs.rhs(w), &mut quiet)?;
    }
    if let (Some(s), Some(h)) = (&solver, &hand) {
        if !h.factors_match(s) {
            guard.push("factors differ from the Solver's after set-up".into());
        }
    }
    let probes = match hand.as_mut() {
        Some(h) if spec.ranks > 1 => Some(dist_probes(spec, &inputs, h)?),
        _ => None,
    };
    let refine_before = hand.as_ref().map_or_else(Default::default, |h| h.refine);

    let mut ref_s = Vec::new();
    let mut numeric_samples = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    while more_ops(ref_s.len(), started, TRACED_OPS.min(spec.ops), cfg.seconds) {
        let op = ref_s.len();
        let (a, rhs) = op_inputs(spec, &inputs, op, cfg.inject);
        let (secs, reference) = solver_op(spec, &mut solver, &a, &rhs);
        ref_s.push(secs);
        tr.set_op(op as u64);
        let out = hand_op(spec, &mut hand, &a, &rhs, &mut tr);
        if !(op_ok(&a, &rhs, &reference) && op_ok(&a, &rhs, &out)) {
            failed += 1;
        }
        let (Some(s), Some(h)) = (&solver, &hand) else { continue };
        if !matches!(spec.op, Op::SolveMulti { .. }) {
            numeric_samples.push(NumericSample::of(&h.numeric));
        }
        if !h.factors_match(s) {
            guard.push(format!("factors differ from the Solver's on op {op}"));
        }
        // Distributed sweeps sum partial contributions in arrival order;
        // their answers are held to the residual, not to the bits.
        if spec.ranks == 1 {
            if let (Ok(x), Ok(y)) = (&reference, &out) {
                if !bitwise_eq(x, y) {
                    guard.push(format!("solutions differ from the Solver's on op {op}"));
                }
            }
        }
    }
    if let (Some(s), Some(h)) = (&solver, &hand) {
        guard.extend(count_mismatches(s, h));
    }
    guard.truncate(8);
    let hand = hand.ok_or("no op completed through the hand-driven pipeline")?;

    // Spans → per-op seconds by layer.
    let per_op = per_op_seconds(tr.spans());
    let ops: Vec<_> = per_op.iter().filter(|(id, _)| **id != SETUP_OP).map(|(_, m)| m).collect();
    let setup = per_op.get(&SETUP_OP);
    let med_of = |name: &str, f: fn(&(f64, f64, u64)) -> f64| {
        median(&ops.iter().filter_map(|m| m.get(name).map(f)).collect::<Vec<_>>())
    };
    let total = |e: &(f64, f64, u64)| e.0;
    let self_time = |e: &(f64, f64, u64)| e.1;
    let per_call = |e: &(f64, f64, u64)| e.0 / e.2 as f64;
    // A layer's seconds per op; where the op never calls it, its one
    // call during set-up; where it never runs at all, 0.
    let in_op_or_setup = |name: &str| {
        med_of(name, total).or_else(|| setup.and_then(|m| m.get(name)).map(per_call)).unwrap_or(0.0)
    };
    let in_op = |name: &str, f| med_of(name, f).unwrap_or(0.0);

    let traced_op_s = in_op("op", total);
    let ref_op_s = median(&ref_s).expect("at least one op ran");
    if numeric_samples.is_empty() {
        numeric_samples.extend(first_sample.take());
    }
    let med_sample = |f: &dyn Fn(&NumericSample) -> f64| {
        median(&numeric_samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let med_dist = |f: &dyn Fn(&DistSample) -> f64| {
        med_sample(&|s: &NumericSample| s.dist.as_ref().map_or(0.0, f))
    };
    // The factors the kernels and sweeps actually touch: f32 when mixed.
    let (model, sweep_bytes) = match hand.factors32() {
        Some(bm32) => (kernel_model(bm32, &hand.tg), bm32.memory_bytes()),
        None => (kernel_model(&hand.bm, &hand.tg), hand.bm.memory_bytes()),
    };
    let refine_iters = hand.refine.refine_iters - refine_before.refine_iters;
    let refined_solves = hand.refine.refined_solves - refine_before.refined_solves;
    let probe_skips = hand.refine.probe_skips - refine_before.probe_skips;
    let calls = numeric_samples.last().map_or([0; 4], |s| s.calls);
    let busy = [med_sample(&|s| s.getrf_s), med_sample(&|s| s.trsm_s), med_sample(&|s| s.ssssm_s)];
    let busy_total: f64 = busy.iter().sum();
    let flops_total: f64 = model.flops.iter().sum();
    let (forward_s, backward_s) =
        (in_op("trisolve.forward", per_call), in_op("trisolve.backward", per_call));
    let sweep_s = forward_s + backward_s;
    let numeric_steady_s = in_op("numeric.steady", total);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let refactor_ops = if spec.op == Op::Refactor { ops.len() as f64 } else { 0.0 };

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("reorder.s", in_op_or_setup("reorder"));
    v.insert("reorder.nnz_lu", hand.sym.nnz_lu as f64);
    v.insert("symbolic.s", in_op_or_setup("symbolic"));
    v.insert("symbolic.flops", hand.sym.flops);
    v.insert("preprocess.s", in_op_or_setup("preprocess"));
    v.insert("preprocess.nb", hand.bm.nb() as f64);
    v.insert("preprocess.blocks", hand.bm.num_blocks() as f64);
    v.insert("preprocess.tasks", hand.tg.num_tasks(hand.bm.num_blocks()) as f64);
    v.insert("numeric.first_s", in_op_or_setup("numeric.first"));
    v.insert("numeric.steady_s", numeric_steady_s);
    for c in 0..4 {
        v.insert(KERNEL_CALLS[c], calls[c] as f64);
        v.insert(KERNEL_FLOPS[c], model.flops[c]);
    }
    v.insert("kernels.getrf.busy_s", busy[0]);
    v.insert("kernels.trsm.busy_s", busy[1]);
    v.insert("kernels.ssssm.busy_s", busy[2]);
    v.insert("kernels.gflops", ratio(flops_total * 1e-9, busy_total));
    v.insert("kernels.bytes_computed", model.bytes);
    v.insert("kernels.flop_per_byte", ratio(flops_total, model.bytes));
    v.insert("dist.busy_frac", med_dist(&|d| d.busy_frac));
    v.insert("dist.sync_wait_frac", med_dist(&|d| d.sync_wait_frac));
    v.insert("dist.blocked_recvs", med_dist(&|d| d.blocked_recvs as f64));
    v.insert(
        "dist.speedup_vs_seq",
        probes.as_ref().map_or(0.0, |p| ratio(p.seq_steady_s, numeric_steady_s)),
    );
    v.insert("dist.meter_overhead", probes.as_ref().map_or(0.0, |p| p.meter_overhead));
    v.insert("comm.msgs", med_dist(&|d| d.msgs as f64));
    v.insert("comm.bytes", med_dist(&|d| d.bytes as f64));
    v.insert("comm.max_queue_depth", med_dist(&|d| d.max_queue_depth as f64));
    v.insert("comm.roundtrip_us", probes.as_ref().map_or(0.0, |p| p.roundtrip_us));
    v.insert("trisolve.forward_s", forward_s);
    v.insert("trisolve.backward_s", backward_s);
    v.insert("trisolve.gbps", ratio(sweep_bytes as f64 * 1e-9, sweep_s));
    v.insert("dist_solve.s", in_op("dist_solve", total));
    v.insert("solver.scatter_s", in_op("solver.scatter", total));
    v.insert("solver.permute_scale_s", in_op("solve", self_time));
    v.insert("sparse.spmv_s", in_op("sparse.spmv", total));
    v.insert("refine.iters_per_solve", ratio(refine_iters as f64, refined_solves as f64));
    v.insert(
        "refine.fallbacks",
        solver.as_ref().map_or(0.0, |s| s.precision_counters().precision_fallbacks as f64),
    );
    v.insert("refine.probe_skips", ratio(probe_skips as f64, refactor_ops));
    v.insert("trace.op_s", traced_op_s);
    v.insert("trace.overhead", ratio(traced_op_s, ref_op_s));
    let gated = PER_LAYER
        .iter()
        .filter_map(|(name, unit)| v.get(name).map(|value| Metric::new(*name, *value, unit)))
        .collect();

    // Where the op's time goes: median self time of each span name as a
    // share of the op span.
    let mut names: Vec<&'static str> = ops.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut extra = vec![Metric::new("ref.op_s", ref_op_s, "s")];
    for name in names {
        let share = median(
            &ops.iter()
                .map(|m| ratio(m.get(name).map_or(0.0, self_time), m.get("op").map_or(0.0, total)))
                .collect::<Vec<_>>(),
        );
        extra.push(Metric::new(format!("share.{name}"), share.unwrap_or(0.0), "ratio"));
    }
    if let Some(p) = &probes {
        extra.push(Metric::new("dist.seq_steady_s", p.seq_steady_s, "s"));
    }

    let mut counts: Vec<(&'static str, f64)> = vec![
        ("nnz_lu", hand.sym.nnz_lu as f64),
        ("flops", hand.sym.flops),
        ("nb", hand.bm.nb() as f64),
        ("blocks", hand.bm.num_blocks() as f64),
        ("tasks", hand.tg.num_tasks(hand.bm.num_blocks()) as f64),
        ("msgs", v["comm.msgs"]),
        ("bytes", v["comm.bytes"]),
        ("refine.iters", hand.refine.refine_iters as f64),
        ("refine.solves", hand.refine.refined_solves as f64),
        ("refine.probe_skips", hand.refine.probe_skips as f64),
        ("ops", ops.len() as f64),
    ];
    counts.extend(KERNEL_FLOPS.into_iter().zip(model.flops));

    let outcome = Outcome {
        spec: *spec,
        seed: cfg.seed,
        trace: true,
        attempted: ref_s.len() as u64,
        failed,
        guard,
        gated,
        extra,
        counts,
        samples: vec![
            ("ref.op_s", summarize(&ref_s).expect("at least one op ran")),
            (
                "trace.op_s",
                summarize(&ops.iter().filter_map(|m| m.get("op").map(total)).collect::<Vec<_>>())
                    .expect("at least one op ran"),
            ),
        ],
    };
    Ok((outcome, tr.into_spans()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn cfg(trace: bool, inject: Option<Fault>) -> RunConfig {
        RunConfig { seed: 1, seconds: None, trace, inject }
    }

    #[test]
    fn every_tiny_workload_passes_untraced_with_all_metrics() {
        for w in WORKLOADS {
            let spec = w.tiny();
            let o = run_untraced(&spec, &cfg(false, None)).unwrap();
            assert_eq!((o.attempted, o.failed), (spec.ops as u64, 0), "{}", w.name);
            assert!(o.correct(), "{}: missing {:?}", w.name, o.missing());
            assert!(o.gated.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name, o.gated);
        }
    }

    #[test]
    fn every_tiny_workload_passes_traced_and_matches_the_solver_bitwise() {
        for w in WORKLOADS {
            let spec = w.tiny();
            let (o, spans) = run_traced(&spec, &cfg(true, None)).unwrap();
            assert_eq!(o.failed, 0, "{}", w.name);
            assert_eq!(o.guard, Vec::<String>::new(), "{}", w.name);
            assert!(o.correct(), "{}: missing {:?}", w.name, o.missing());
            assert_eq!(o.gated.len(), PER_LAYER.len());
            assert_eq!(spans.iter().filter(|s| s.name == "op").count() as u64, o.attempted);
            let value = |n: &str| o.gated.iter().find(|m| m.name == n).unwrap().value;
            assert!(value("reorder.s") > 0.0 && value("numeric.first_s") > 0.0, "{}", w.name);
            assert_eq!(value("dist.busy_frac") > 0.0, spec.ranks > 1, "{}", w.name);
            assert_eq!(value("comm.msgs") > 0.0, spec.ranks > 1, "{}", w.name);
            assert_eq!(value("dist_solve.s") > 0.0, spec.ranks > 1, "{}", w.name);
            assert_eq!(value("trisolve.forward_s") > 0.0, spec.ranks == 1, "{}", w.name);
            assert_eq!(
                value("refine.iters_per_solve") > 0.0,
                spec.precision == pangulu_core::Precision::MixedF32,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn traced_and_untraced_runs_report_the_same_exact_counts() {
        for w in WORKLOADS {
            let spec = Spec { ops: TRACED_OPS, ..w.tiny() };
            let plain = run_untraced(&spec, &cfg(false, None)).unwrap();
            let (traced, _) = run_traced(&spec, &cfg(true, None)).unwrap();
            for (name, value) in &traced.counts {
                if let Some((_, other)) = plain.counts.iter().find(|(n, _)| n == name) {
                    assert_eq!(value.to_bits(), other.to_bits(), "{} {name}", w.name);
                }
            }
        }
    }

    #[test]
    fn injected_bad_inputs_are_counted_as_failed_ops() {
        for w in WORKLOADS {
            for fault in [Fault::RhsLen, Fault::NanInput] {
                let o = run_untraced(&w.tiny(), &cfg(false, Some(fault))).unwrap();
                assert_eq!(o.failed, 1, "{} {fault:?}", w.name);
                assert_eq!(o.attempted, w.tiny().ops as u64);
                assert!(!o.correct(), "{} {fault:?}", w.name);
            }
        }
    }

    #[test]
    fn a_time_box_still_runs_the_minimum_op_count() {
        let spec = WORKLOADS[1].tiny();
        let o = run_untraced(&spec, &RunConfig { seconds: Some(0.0), ..cfg(false, None) }).unwrap();
        assert_eq!(o.attempted, MIN_TIMED_OPS as u64);
    }
}

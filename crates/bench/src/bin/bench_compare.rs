//! `bench_compare` — the benchmark-regression gate.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json> [--tol <frac>]
//! bench_compare --self-test <baseline.json> [--tol <frac>]
//! ```
//!
//! Diffs a fresh benchmark emission (`BENCH_smoke.json` from the `smoke`
//! bin, or `BENCH_refactor.json` from `bench_refactor`) against the
//! checked-in baseline of the same schema and exits non-zero on a
//! regression:
//!
//! * **work counters** (messages, bytes, tasks, kernel calls, per-class
//!   calls, copy/alloc counters, observed/model FLOPs) are deterministic
//!   for a fixed corpus and grid, so they must match **exactly** — a
//!   drift means the accounting or the schedule changed and the baseline
//!   must be regenerated deliberately;
//! * **residuals** may wobble with summation order; fresh must stay
//!   under `max(10 x baseline, 1e-11)`;
//! * **wall time** is gated on the corpus total: fresh must be within
//!   `(1 + tol) x baseline`, tol defaulting to 0.15 (override with
//!   `--tol` or `PANGULU_BENCH_TOL`). Per-matrix walls are reported but
//!   only warn, since sub-10ms runs are noisy in isolation.
//!
//! `--self-test` proves the gate has teeth: it clones the baseline,
//! inflates every wall time by 1.2x (the injected regression from the
//! acceptance criteria), runs the same comparison, and *fails* if the
//! gate passed.

use std::process::ExitCode;

use pangulu_metrics::json::Json;

/// Accepted document schemas: the single-shot smoke corpus, the
/// refactorisation (steady-state) corpus, and the kernel-plan
/// micro-benchmark sweep. Baseline and fresh must carry the *same*
/// schema — the gate never compares across benchmark kinds.
const SCHEMAS: [&str; 3] =
    ["pangulu-bench-smoke-v1", "pangulu-bench-refactor-v1", "pangulu-bench-kernels-v1"];
const DEFAULT_TOL: f64 = 0.15;
const SELF_TEST_SLOWDOWN: f64 = 1.2;
/// Counters compared exactly; FLOPs get a tiny relative slack for the
/// f64 round-trip through JSON text. The phase counters pin the
/// analyze/factor split: any recomputed analysis work in a steady-state
/// refactorisation run shows up here as a hard failure, not a wall-time
/// wobble. The steal counters are gated exactly too: the gated bench
/// arms run the (non-stealing) Priority policy, so both must stay
/// deterministically zero — a nonzero value means a stealing policy
/// leaked into a gated configuration. `lookahead_hits` and
/// `priority_inversions` are timing-dependent and deliberately NOT
/// gated. The codec counters are exact too: `frames_sent` is one frame
/// per mailbox send on a byte transport (zero on the in-process
/// channel), and `codec_bytes_encoded` encodes every scatter payload
/// exactly once — identical between the TCP and shm arms, so the gate
/// holds whichever backend the bench environment could run.
const EXACT_KEYS: [&str; 19] = [
    "msgs",
    "bytes",
    "tasks",
    "kernel_calls",
    "bytes_copied",
    "payload_allocs",
    "pattern_cache_hits",
    "planned_calls",
    "index_searches_avoided",
    "plan_bytes",
    "reorder_runs",
    "symbolic_runs",
    "preprocess_runs",
    "numeric_runs",
    "analysis_reuses",
    "steals",
    "steal_bytes",
    "frames_sent",
    "codec_bytes_encoded",
];
/// Exact-gated keys that only some schemas emit (the mixed-precision
/// A/B arm lives in the refactor benchmark only). Present in the
/// baseline but absent from the fresh emission is a hard failure — a
/// silently dropped counter must not pass the gate — while absent from
/// the baseline means the baseline predates the counter and the key is
/// skipped.
const OPTIONAL_EXACT_KEYS: [&str; 7] = [
    "mixed_bytes",
    "mixed_plan_bytes",
    "refine_iters",
    "precision_fallbacks",
    "plan_runs",
    "run_axpy_entries",
    "probe_skips",
];
/// Residual-gated keys that only some schemas emit, same presence rules
/// as [`OPTIONAL_EXACT_KEYS`].
const OPTIONAL_RESIDUAL_KEYS: [&str; 1] = ["mixed_residual"];
const FLOP_KEYS: [&str; 2] = ["observed_flops", "predicted_flops"];
const FLOP_RTOL: f64 = 1e-9;
const RESIDUAL_FLOOR: f64 = 1e-11;
/// Absolute slack added to the total-wall gate so fixed scheduler jitter
/// (thread spawn, first-touch faults) cannot trip it; a real 20% slowdown
/// on the ~0.7s corpus dwarfs this.
const WALL_ABS_SLACK: f64 = 0.01;

fn usage() -> ! {
    eprintln!("usage: bench_compare <baseline.json> <fresh.json> [--tol <frac>]");
    eprintln!("       bench_compare --self-test <baseline.json> [--tol <frac>]");
    std::process::exit(2);
}

fn load(path: &str) -> (Json, String) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: reading {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_compare: parsing {path}: {e}");
        std::process::exit(2);
    });
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if SCHEMAS.contains(&s) => {
            let schema = s.to_string();
            (doc, schema)
        }
        other => {
            eprintln!("bench_compare: {path}: expected one of {SCHEMAS:?}, found {other:?}");
            std::process::exit(2);
        }
    }
}

fn req_f64(m: &Json, key: &str, ctx: &str) -> f64 {
    m.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
        eprintln!("bench_compare: {ctx}: missing numeric field {key:?}");
        std::process::exit(2);
    })
}

fn matrices(doc: &Json, path: &str) -> Vec<(String, Json)> {
    let arr = doc.get("matrices").and_then(Json::as_arr).unwrap_or_else(|| {
        eprintln!("bench_compare: {path}: missing \"matrices\" array");
        std::process::exit(2);
    });
    arr.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_else(|| {
                eprintln!("bench_compare: {path}: matrix entry without a name");
                std::process::exit(2);
            });
            (name.to_string(), m.clone())
        })
        .collect()
}

/// Run the gate; returns the list of failures (empty = pass).
fn compare(base: &Json, fresh: &Json, tol: f64) -> Vec<String> {
    let mut fails = Vec::new();
    let base_mats = matrices(base, "baseline");
    let fresh_mats = matrices(fresh, "fresh");

    let base_names: Vec<&str> = base_mats.iter().map(|(n, _)| n.as_str()).collect();
    let fresh_names: Vec<&str> = fresh_mats.iter().map(|(n, _)| n.as_str()).collect();
    if base_names != fresh_names {
        fails.push(format!(
            "corpus mismatch: baseline {base_names:?} vs fresh {fresh_names:?} \
             (regenerate the baseline if the corpus changed on purpose)"
        ));
        return fails;
    }

    for ((name, b), (_, f)) in base_mats.iter().zip(&fresh_mats) {
        // Deterministic work counters: exact.
        for key in EXACT_KEYS {
            let bv = req_f64(b, key, name);
            let fv = req_f64(f, key, name);
            if bv != fv {
                fails.push(format!("{name}: counter {key} drifted: baseline {bv} vs fresh {fv}"));
            }
        }
        let by_class: &[(String, Json)] = match b.get("kernel_calls_by_class") {
            Some(Json::Obj(kvs)) => kvs,
            _ => &[],
        };
        for (class, bv) in
            by_class.iter().map(|(k, v)| (k.as_str(), v.as_f64().unwrap_or(f64::NAN)))
        {
            let fv = f
                .get("kernel_calls_by_class")
                .and_then(|o| o.get(class))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            if bv != fv {
                fails.push(format!(
                    "{name}: kernel class {class} calls drifted: baseline {bv} vs fresh {fv}"
                ));
            }
        }
        for key in OPTIONAL_EXACT_KEYS {
            let Some(bv) = b.get(key).and_then(Json::as_f64) else { continue };
            let fv = req_f64(f, key, name);
            if bv != fv {
                fails.push(format!("{name}: counter {key} drifted: baseline {bv} vs fresh {fv}"));
            }
        }
        for key in FLOP_KEYS {
            let bv = req_f64(b, key, name);
            let fv = req_f64(f, key, name);
            let scale = bv.abs().max(1.0);
            if (bv - fv).abs() > FLOP_RTOL * scale {
                fails.push(format!("{name}: {key} drifted: baseline {bv} vs fresh {fv}"));
            }
        }

        // Residual: order-of-magnitude guard with an absolute floor.
        let br = req_f64(b, "residual", name);
        let fr = req_f64(f, "residual", name);
        let bound = (10.0 * br).max(RESIDUAL_FLOOR);
        // NaN must fail the gate, hence the explicit is_nan arm.
        if fr > bound || fr.is_nan() {
            fails.push(format!(
                "{name}: residual regressed: fresh {fr:.3e} exceeds bound {bound:.3e} \
                 (baseline {br:.3e})"
            ));
        }

        for key in OPTIONAL_RESIDUAL_KEYS {
            let Some(br) = b.get(key).and_then(Json::as_f64) else { continue };
            let fr = req_f64(f, key, name);
            let bound = (10.0 * br).max(RESIDUAL_FLOOR);
            if fr > bound || fr.is_nan() {
                fails.push(format!(
                    "{name}: {key} regressed: fresh {fr:.3e} exceeds bound {bound:.3e} \
                     (baseline {br:.3e})"
                ));
            }
        }

        // Per-matrix wall: informational only (tiny runs are noisy).
        let bw = req_f64(b, "wall_seconds", name);
        let fw = req_f64(f, "wall_seconds", name);
        if fw > bw * (1.0 + tol) {
            eprintln!(
                "bench_compare: note: {name} wall {fw:.4}s vs baseline {bw:.4}s \
                 (gate applies to the corpus total)"
            );
        }
    }

    // The gate proper: total corpus wall time.
    let bt = req_f64(base, "total_wall_seconds", "baseline");
    let ft = req_f64(fresh, "total_wall_seconds", "fresh");
    let bound = bt * (1.0 + tol) + WALL_ABS_SLACK;
    if ft > bound {
        fails.push(format!(
            "total wall time regressed: fresh {ft:.4}s > {bound:.4}s = \
             baseline {bt:.4}s x (1 + {tol}) + {WALL_ABS_SLACK}s slack"
        ));
    }
    fails
}

/// Clone the baseline with every wall time inflated by `factor`.
fn inflate_walls(doc: &Json, factor: f64) -> Json {
    fn walk(j: &Json, factor: f64, under_wall: bool) -> Json {
        match j {
            Json::Num(v) if under_wall => Json::Num(v * factor),
            Json::Obj(kvs) => Json::Obj(
                kvs.iter()
                    .map(|(k, v)| {
                        let wall = k == "wall_seconds" || k == "total_wall_seconds";
                        (k.clone(), walk(v, factor, wall))
                    })
                    .collect(),
            ),
            Json::Arr(items) => {
                Json::Arr(items.iter().map(|v| walk(v, factor, under_wall)).collect())
            }
            other => other.clone(),
        }
    }
    walk(doc, factor, false)
}

fn main() -> ExitCode {
    let mut tol: Option<f64> = None;
    let mut self_test = false;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tol" => {
                let v = args.next().unwrap_or_else(|| usage());
                tol = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--self-test" => self_test = true,
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => usage(),
            other => paths.push(other.to_string()),
        }
    }
    let tol = tol
        .or_else(|| std::env::var("PANGULU_BENCH_TOL").ok().and_then(|v| v.parse().ok()))
        .unwrap_or(DEFAULT_TOL);

    if self_test {
        let [baseline] = paths.as_slice() else { usage() };
        let (base, _) = load(baseline);
        let slowed = inflate_walls(&base, SELF_TEST_SLOWDOWN);
        let fails = compare(&base, &slowed, tol);
        if fails.is_empty() {
            eprintln!(
                "bench_compare: SELF-TEST FAILED: a {SELF_TEST_SLOWDOWN}x wall slowdown \
                 passed the gate at tol {tol}"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "bench_compare: self-test ok: {SELF_TEST_SLOWDOWN}x slowdown caught at tol {tol} \
             ({} failure(s))",
            fails.len()
        );
        return ExitCode::SUCCESS;
    }

    let [baseline, fresh] = paths.as_slice() else { usage() };
    let (base, base_schema) = load(baseline);
    let (new, fresh_schema) = load(fresh);
    if base_schema != fresh_schema {
        eprintln!(
            "bench_compare: schema mismatch: {baseline} is {base_schema:?} but \
             {fresh} is {fresh_schema:?}"
        );
        return ExitCode::from(2);
    }
    let fails = compare(&base, &new, tol);
    if fails.is_empty() {
        println!("bench_compare: ok ({baseline} vs {fresh}, wall tol {tol})");
        ExitCode::SUCCESS
    } else {
        for f in &fails {
            eprintln!("bench_compare: FAIL: {f}");
        }
        eprintln!("bench_compare: {} regression(s) against {baseline}", fails.len());
        ExitCode::FAILURE
    }
}

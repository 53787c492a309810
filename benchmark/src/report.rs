//! Metric tables, the per-run record and its text / JSON forms.

use pangulu_metrics::json::Json;

use crate::stats::Summary;
use crate::workload::Spec;

/// End-to-end metrics: `(name, unit, relative bound, absolute floor)`.
/// All are lower-is-better. `BENCHMARK.json` carries the relative bounds;
/// the floors (which its schema has no key for) apply in `compare` only.
/// The bounds are sized to this box's run-to-run noise, not to taste: see
/// "Why the time bounds are wide" in README.md.
pub const END_TO_END: [(&str, &str, f64, f64); 3] =
    [("op_s", "s", 0.25, 0.0), ("setup_s", "s", 0.25, 0.05), ("peak_heap_mb", "MiB", 0.05, 2.0)];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that does
/// not run on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("reorder.s", "s"),
    ("reorder.nnz_lu", "count"),
    ("symbolic.s", "s"),
    ("symbolic.flops", "flop"),
    ("preprocess.s", "s"),
    ("preprocess.nb", "count"),
    ("preprocess.blocks", "count"),
    ("preprocess.tasks", "count"),
    ("numeric.first_s", "s"),
    ("numeric.steady_s", "s"),
    ("kernels.getrf.calls", "count"),
    ("kernels.gessm.calls", "count"),
    ("kernels.tstrf.calls", "count"),
    ("kernels.ssssm.calls", "count"),
    ("kernels.getrf.flops", "flop"),
    ("kernels.gessm.flops", "flop"),
    ("kernels.tstrf.flops", "flop"),
    ("kernels.ssssm.flops", "flop"),
    ("kernels.getrf.busy_s", "s"),
    ("kernels.trsm.busy_s", "s"),
    ("kernels.ssssm.busy_s", "s"),
    ("kernels.gflops", "GFLOP/s"),
    ("kernels.bytes_computed", "B"),
    ("kernels.flop_per_byte", "flop/B"),
    ("dist.busy_frac", "ratio"),
    ("dist.sync_wait_frac", "ratio"),
    ("dist.blocked_recvs", "count"),
    ("dist.speedup_vs_seq", "ratio"),
    ("dist.meter_overhead", "ratio"),
    ("comm.msgs", "count"),
    ("comm.bytes", "B"),
    ("comm.max_queue_depth", "count"),
    ("comm.roundtrip_us", "us"),
    ("trisolve.forward_s", "s"),
    ("trisolve.backward_s", "s"),
    ("trisolve.gbps", "GB/s"),
    ("dist_solve.s", "s"),
    ("solver.scatter_s", "s"),
    ("solver.permute_scale_s", "s"),
    ("sparse.spmv_s", "s"),
    ("refine.iters_per_solve", "count"),
    ("refine.fallbacks", "count"),
    ("refine.probe_skips", "ratio"),
    ("trace.op_s", "s"),
    ("trace.overhead", "ratio"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub spec: Spec,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Equivalence-guard violations of the traced run (empty when the
    /// hand-driven pipeline agreed with the `Solver` on every op).
    pub guard: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub gated: Vec<Metric>,
    /// Printed and recorded, never gated.
    pub extra: Vec<Metric>,
    /// Counts that must repeat exactly for a fixed workload, seed and op count.
    pub counts: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, Summary)>,
}

impl Outcome {
    /// Names from the mode's table that are absent or not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        let want: Vec<&'static str> = if self.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        want.into_iter()
            .filter(|name| !self.gated.iter().any(|m| m.name == *name && m.value.is_finite()))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.guard.is_empty() && self.missing().is_empty()
    }

    /// `workload metric value unit` lines, gated metrics first.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        let name = self.spec.name;
        for m in self.gated.iter().chain(&self.extra) {
            out.push_str(&format!("{name} {} {} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!("{name} ops_attempted {} count\n", self.attempted));
        out.push_str(&format!("{name} ops_failed {} count\n", self.failed));
        for g in &self.guard {
            out.push_str(&format!("{name} GUARD {g}\n"));
        }
        out
    }

    /// The full record: environment, counts, sample quartiles, metrics.
    pub fn record(&self, env: &Environment) -> Json {
        let samples = Json::Obj(
            self.samples
                .iter()
                .map(|(name, s)| {
                    let body = Json::obj(vec![
                        ("n", Json::Num(s.n as f64)),
                        ("min", Json::Num(s.min)),
                        ("q1", Json::Num(s.q1)),
                        ("median", Json::Num(s.median)),
                        ("q3", Json::Num(s.q3)),
                        ("max", Json::Num(s.max)),
                    ]);
                    (name.to_string(), body)
                })
                .collect(),
        );
        Json::obj(vec![
            ("workload", Json::Str(self.spec.name.into())),
            ("input", Json::Str(self.spec.describe_input())),
            ("ranks", Json::Num(self.spec.ranks as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("nproc", Json::Num(env.nproc as f64)),
            ("rustc", Json::Str(env.rustc.clone())),
            ("commit", Json::Str(env.commit.clone())),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("guard", Json::Arr(self.guard.iter().map(|g| Json::Str(g.clone())).collect())),
            ("metrics", metrics_json(&self.gated)),
            ("extra", metrics_json(&self.extra)),
            (
                "counts",
                Json::Obj(
                    self.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect(),
                ),
            ),
            ("samples", samples),
        ])
    }

    /// The one-line result the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        one_line(&Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.gated)),
        ]))
    }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                let body = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), body)
            })
            .collect(),
    )
}

/// Where the run happened; `rustc` and `commit` come from `run.sh`.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Environment {
    pub fn detect() -> Environment {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: var("PANGULU_BENCH_RUSTC"),
            commit: var("PANGULU_BENCH_COMMIT"),
        }
    }
}

/// `Json::pretty` folded onto one line (its line breaks are structural
/// only: strings escape theirs).
pub fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;
    use crate::workload::WORKLOADS;

    fn outcome(trace: bool) -> Outcome {
        let gated = if trace {
            PER_LAYER.iter().map(|(n, u)| Metric::new(*n, 1.5, u)).collect()
        } else {
            END_TO_END.iter().map(|(n, u, _, _)| Metric::new(*n, 0.25, u)).collect()
        };
        Outcome {
            spec: WORKLOADS[0],
            seed: 7,
            trace,
            attempted: 16,
            failed: 0,
            guard: Vec::new(),
            gated,
            extra: vec![Metric::new("ops_per_s", 4.0, "1/s")],
            counts: vec![("nnz_lu", 205948.0)],
            samples: vec![("op_s", summarize(&[1.0, 2.0, 3.0]).unwrap())],
        }
    }

    #[test]
    fn contract_line_is_one_line_with_exactly_the_four_keys() {
        let line = outcome(false).contract_line();
        assert!(!line.contains('\n'));
        let Json::Obj(pairs) = Json::parse(&line).unwrap() else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let j = Json::Obj(pairs);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.req_u64("attempted").unwrap(), 16);
        let Some(Json::Obj(metrics)) = j.get("metrics") else { panic!("metrics object") };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["op_s", "setup_s", "peak_heap_mb"]);
        assert_eq!(metrics[0].1.req_f64("value").unwrap(), 0.25);
        assert_eq!(metrics[2].1.get("unit").unwrap().as_str(), Some("MiB"));
    }

    #[test]
    fn record_parses_back_with_environment_and_quartiles() {
        let env = Environment { nproc: 2, rustc: "rustc 1.95.0".into(), commit: "abc".into() };
        let back = Json::parse(&outcome(true).record(&env).pretty()).unwrap();
        assert_eq!(back.get("workload").unwrap().as_str(), Some("oneshot.circuit"));
        assert_eq!(back.req_u64("nproc").unwrap(), 2);
        assert_eq!(back.req_u64("seed").unwrap(), 7);
        assert_eq!(
            back.get("samples").unwrap().get("op_s").unwrap().req_f64("median").unwrap(),
            2.0
        );
        assert_eq!(back.get("counts").unwrap().req_u64("nnz_lu").unwrap(), 205948);
        let Some(Json::Obj(metrics)) = back.get("metrics") else { panic!("metrics object") };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_op_a_guard_violation_or_a_missing_metric_is_incorrect() {
        assert!(outcome(false).correct());
        let mut o = outcome(false);
        o.failed = 1;
        assert!(!o.correct());
        let mut o = outcome(true);
        o.guard.push("factors differ on op 3".into());
        assert!(!o.correct());
        let mut o = outcome(false);
        o.gated.pop();
        assert_eq!(o.missing(), ["peak_heap_mb"]);
        assert!(!o.correct());
        let mut o = outcome(false);
        o.gated[0].value = f64::NAN;
        assert_eq!(o.missing(), ["op_s"]);
    }

    #[test]
    fn benchmark_json_names_what_the_source_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str, field: &str| -> Vec<String> {
            let items = j.get(key).and_then(Json::as_arr).unwrap();
            items.iter().map(|m| m.get(field).unwrap().as_str().unwrap().to_string()).collect()
        };
        assert_eq!(j.get("paths").unwrap().as_arr().unwrap(), [Json::Str("benchmark".into())]);
        assert_eq!(list("workloads", "name"), WORKLOADS.map(|w| w.name));
        assert_eq!(list("end_to_end", "name"), END_TO_END.map(|m| m.0));
        assert_eq!(list("end_to_end", "unit"), END_TO_END.map(|m| m.1));
        assert_eq!(list("per_layer", "name"), PER_LAYER.map(|m| m.0));
        assert_eq!(list("per_layer", "unit"), PER_LAYER.map(|m| m.1));
        let bounds: Vec<f64> = j
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.req_f64("bound").unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.2));
    }

    #[test]
    fn metric_names_and_units_fit_the_benchmark_schema() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().map(|m| (m.0, m.1)).chain(PER_LAYER.iter().copied()) {
            assert!(name_ok(n), "bad name {n}");
            assert!(unit_ok(u), "bad unit {u}");
            assert!(seen.insert(n), "duplicate metric {n}");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
        }
    }
}

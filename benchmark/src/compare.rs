//! Compares two sets of untraced run records of the same build
//! (`repeat.sh`): both medians and their ratio per metric and workload,
//! held to the bounds of `BENCHMARK.json`, and every exact count held to
//! equality.

use pangulu_metrics::json::Json;

use crate::report::END_TO_END;
use crate::stats::disagree;

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub disagree: bool,
}

/// `(metric, relative bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds_of(benchmark_json: &Json) -> Result<Vec<(String, f64)>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let bound = m.req_f64("bound").map_err(|e| e.to_string())?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compares two records of one workload. Returns the metric rows and a
/// message per exact count that did not repeat.
pub fn compare_records(
    a: &Json,
    b: &Json,
    bounds: &[(String, f64)],
) -> Result<(Vec<Row>, Vec<String>), String> {
    let workload = a.get("workload").and_then(Json::as_str).ok_or("record without workload")?;
    if b.get("workload").and_then(Json::as_str) != Some(workload) {
        return Err(format!("records of different workloads compared with {workload}"));
    }
    let value = |rec: &Json, metric: &str| {
        rec.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: metric {metric} is missing"))
    };
    let mut rows = Vec::new();
    for (metric, bound) in bounds {
        let floor = END_TO_END.iter().find(|m| m.0 == metric).map_or(0.0, |m| m.3);
        let (va, vb) = (value(a, metric)?, value(b, metric)?);
        rows.push(Row {
            workload: workload.to_string(),
            metric: metric.clone(),
            a: va,
            b: vb,
            bound: *bound,
            disagree: disagree(va, vb, *bound, floor),
        });
    }
    let mut drift = Vec::new();
    if let (Some(Json::Obj(ca)), Some(cb)) = (a.get("counts"), b.get("counts")) {
        for (name, va) in ca {
            if cb.get(name) != Some(va) {
                drift.push(format!(
                    "{workload}: count {name} did not repeat: {va:?} vs {:?}",
                    cb.get(name)
                ));
            }
        }
    }
    if a.get("ops_failed").and_then(Json::as_u64) != Some(0)
        || b.get("ops_failed").and_then(Json::as_u64) != Some(0)
    {
        drift.push(format!("{workload}: a run has failed ops"));
    }
    Ok((rows, drift))
}

pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<12} {:>12} {:>12} {:>8} {:>7}\n",
        "workload", "metric", "set A", "set B", "B/A", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<12} {:>12.6} {:>12.6} {:>8.4} {:>6.0}%{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.bound * 100.0,
            if r.disagree { "  DISAGREE" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op_s: f64, setup_s: f64, rss: f64, nnz_lu: f64) -> Json {
        let m = |v: f64| Json::obj(vec![("value", Json::Num(v))]);
        Json::obj(vec![
            ("workload", Json::Str("refactor.kkt".into())),
            ("ops_failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj(vec![
                    ("op_s", m(op_s)),
                    ("setup_s", m(setup_s)),
                    ("peak_heap_mb", m(rss)),
                ]),
            ),
            ("counts", Json::obj(vec![("nnz_lu", Json::Num(nnz_lu))])),
        ])
    }

    fn bounds() -> Vec<(String, f64)> {
        END_TO_END.iter().map(|m| (m.0.to_string(), m.2)).collect()
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let j = Json::parse(
            r#"{"end_to_end": [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds_of(&j).unwrap(), vec![("op_s".to_string(), 0.1)]);
        assert!(bounds_of(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn agreement_within_bounds_and_floors() {
        // op_s +5 %, setup_s +40 % but only 20 ms, rss +1 MiB.
        let (rows, drift) = compare_records(
            &record(0.40, 0.050, 60.0, 9.0),
            &record(0.42, 0.070, 61.0, 9.0),
            &bounds(),
        )
        .unwrap();
        assert!(rows.iter().all(|r| !r.disagree), "{rows:?}");
        assert!(drift.is_empty());
        assert!(table(&rows).contains("refactor.kkt"));
    }

    #[test]
    fn disagreement_in_either_direction_and_count_drift_are_flagged() {
        let (rows, drift) = compare_records(
            &record(0.40, 1.0, 60.0, 9.0),
            &record(0.30, 1.3, 60.0, 10.0),
            &bounds(),
        )
        .unwrap();
        let flagged: Vec<&str> =
            rows.iter().filter(|r| r.disagree).map(|r| r.metric.as_str()).collect();
        assert_eq!(flagged, ["op_s", "setup_s"]);
        assert_eq!(drift.len(), 1);
        assert!(table(&rows).contains("DISAGREE"));
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let mut broken = record(0.4, 1.0, 60.0, 9.0);
        if let Json::Obj(pairs) = &mut broken {
            pairs.retain(|(k, _)| k != "metrics");
        }
        assert!(compare_records(&record(0.4, 1.0, 60.0, 9.0), &broken, &bounds()).is_err());
    }
}

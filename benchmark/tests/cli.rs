//! The binary end to end at `--tiny` size: exit codes, the contract line
//! and the files a run leaves behind.

use std::path::PathBuf;
use std::process::{Command, Output};

use pangulu_metrics::json::Json;

fn run(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let output = Command::new(env!("CARGO_BIN_EXE_pangulu-benchmark"))
        .args(args)
        .arg("--tiny")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    (output, out)
}

fn last_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn a_clean_run_exits_zero_and_prints_the_contract_line_last() {
    for w in ["oneshot.circuit", "refactor.circuit.r2", "solve.lap2d.k32"] {
        let (output, out) = run("clean", &["--workload", w, "--seed", "5", "--trace", "0"]);
        assert!(output.status.success(), "{w}: {}", String::from_utf8_lossy(&output.stderr));
        let line = last_line(&output);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(line.req_u64("failed").unwrap(), 0);
        assert!(line.get("metrics").unwrap().get("setup_s").is_some());
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(&format!("{w} op_s ")) && stdout.contains(" ops_failed 0 count"));
        assert!(out.join(format!("result.{w}.json")).is_file());
    }
}

#[test]
fn a_traced_run_writes_the_span_file_and_every_layer_metric() {
    let w = "mixed.kkt";
    let (output, out) = run("traced", &["--workload", w, "--trace", "1"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let Some(Json::Obj(metrics)) = last_line(&output).get("metrics").cloned() else {
        panic!("metrics object")
    };
    assert_eq!(metrics.len(), pangulu_benchmark::report::PER_LAYER.len());
    let trace = std::fs::read_to_string(out.join(format!("trace.{w}.json"))).unwrap();
    let trace = Json::parse(&trace).unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert!(spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("sparse.spmv")));
    assert!(out.join(format!("layers.{w}.json")).is_file());
}

#[test]
fn an_injected_wrong_answer_fails_the_run() {
    for (w, fault) in [("refactor.kkt", "nan-input"), ("solve.lap2d.k32", "rhs-len")] {
        let (output, _) = run("inject", &["--workload", w, "--inject", fault]);
        assert_eq!(output.status.code(), Some(1), "{w} {fault}");
        let line = last_line(&output);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.req_u64("failed").unwrap(), 1);
    }
}

#[test]
fn bad_arguments_exit_with_usage_errors_and_no_result() {
    for args in [&["--workload", "no.such"][..], &["--seed", "x", "--workload", "refactor.kkt"]] {
        let (output, _) = run("usage", args);
        assert_eq!(output.status.code(), Some(2));
        assert!(output.stdout.is_empty());
    }
}

//! `pangulu-benchmark`: runs one workload and prints every metric.
//! `run.sh` builds it and runs each workload in a process of its own.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pangulu_benchmark::compare::{bounds_of, compare_records, table};
use pangulu_benchmark::report::{one_line, Environment};
use pangulu_benchmark::run::{run_traced, run_untraced, Fault, RunConfig};
use pangulu_benchmark::trace::spans_to_json;
use pangulu_benchmark::workload::{find, WORKLOADS};
use pangulu_metrics::json::Json;

const USAGE: &str = "usage:
  pangulu-benchmark list
  pangulu-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
                    [--tiny] [--inject rhs-len|nan-input]
  pangulu-benchmark compare DIR_A DIR_B [--bounds BENCHMARK.json]";

struct Args {
    workload: String,
    cfg: RunConfig,
    tiny: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig { seed: 1, seconds: None, trace: false, inject: None };
    let mut tiny = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                cfg.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                cfg.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is the driver's form.
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => out = PathBuf::from(value("a directory")?),
            "--tiny" => tiny = true,
            "--inject" => {
                cfg.inject = Some(match value("a fault")?.as_str() {
                    "rhs-len" => Fault::RhsLen,
                    "nan-input" => Fault::NanInput,
                    other => return Err(format!("unknown fault {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.trace && cfg.inject.is_some() {
        return Err("--inject is for the untraced run".into());
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, cfg, tiny, out })
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = find(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let spec = if args.tiny { spec.tiny() } else { spec };
    let env = Environment::detect();
    if spec.ranks > env.nproc {
        return Err(format!(
            "{} needs {} ranks but only {} hardware threads are available; \
             an oversubscribed wall time is not a measurement",
            spec.name, spec.ranks, env.nproc
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let outcome = if args.cfg.trace {
        let (outcome, spans) = run_traced(&spec, &args.cfg)?;
        let trace = Json::obj(vec![
            ("workload", Json::Str(spec.name.into())),
            ("seed", Json::Num(args.cfg.seed as f64)),
            ("spans", spans_to_json(&spans)),
        ]);
        write(&args.out.join(format!("trace.{}.json", spec.name)), &trace)?;
        outcome
    } else {
        run_untraced(&spec, &args.cfg)?
    };
    let record = outcome.record(&env);
    let stem = if args.cfg.trace { "layers" } else { "result" };
    write(&args.out.join(format!("{stem}.{}.json", spec.name)), &record)?;
    print!("{}", outcome.lines());
    for name in outcome.missing() {
        println!("{} MISSING {name}", spec.name);
    }
    println!("{}", one_line(&record));
    println!("{}", outcome.contract_line());
    Ok(outcome.correct())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let (dir_a, dir_b) = match args {
        [a, b, ..] => (Path::new(a), Path::new(b)),
        _ => return Err(USAGE.into()),
    };
    let bounds_path = match &args[2..] {
        [] => "BENCHMARK.json",
        [flag, path] if flag == "--bounds" => path.as_str(),
        _ => return Err(USAGE.into()),
    };
    let bounds = bounds_of(&load(Path::new(bounds_path))?)?;
    let (mut rows, mut drift) = (Vec::new(), Vec::new());
    for w in WORKLOADS {
        let file = format!("result.{}.json", w.name);
        let (r, d) =
            compare_records(&load(&dir_a.join(&file))?, &load(&dir_b.join(&file))?, &bounds)?;
        rows.extend(r);
        drift.extend(d);
    }
    print!("{}", table(&rows));
    for d in &drift {
        println!("{d}");
    }
    Ok(drift.is_empty() && rows.iter().all(|r| !r.disagree))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            for w in WORKLOADS {
                println!("{}", w.name);
            }
            Ok(true)
        }
        Some("compare") => compare(&args[1..]),
        Some("-h" | "--help") | None => Err(USAGE.to_string()),
        Some(_) => parse(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

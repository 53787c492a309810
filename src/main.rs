//! `pangulu` — command-line driver, the analog of the PanguLU artifact's
//! `mpirun -np <P> ./test/numerical -F matrix.mtx` entry point.
//!
//! ```text
//! pangulu [OPTIONS] (-F <matrix.mtx> | --gen <name>)
//!
//!   -F, --file <path>      Matrix Market input
//!       --gen <name>       generate a suite analog instead (see --list)
//!       --scale <k>        generator scale factor             [default 1]
//!   -np, --ranks <p>       simulated MPI ranks                [default 1]
//!       --nb <n>           tile size (default: heuristic)
//!       --schedule <s>     sync-free | level-set       [default sync-free]
//!       --policy <p>       fifo | priority | priority-stealing
//!                                                        [default priority]
//!       --transport <t>    channel | shm | tcp | uds       [default channel]
//!       --ordering <o>     auto | amd | nd | rcm | natural  [default auto]
//!       --no-balance       disable the static load balancer
//!       --no-adaptive      disable decision-tree kernel selection
//!       --precision <p>    f64 | mixed (f32 factor + refined solve)
//!                                                            [default f64]
//!       --probe-every <k>  mixed acceptance-probe cadence     [default 4]
//!       --refine <tol>     iterative refinement to the given tolerance
//!       --refactor-reps <n> re-run the numeric-only refactorisation n times
//!       --rhs <path>       right-hand side file (one value per line)
//!       --out <path>       write the solution vector
//!       --report-json <p>  write the per-rank metrics RunReport (multi-rank)
//!       --list             list the generator names and exit
//! ```

use std::io::Write;
use std::process::ExitCode;

use pangulu::comm::TransportKind;
use pangulu::core::dist::ScheduleMode;
use pangulu::core::SchedulePolicy;
use pangulu::prelude::*;
use pangulu::reorder::FillReducing;
use pangulu::sparse::gen::{self, PAPER_MATRICES};
use pangulu::sparse::{io, ops, CscMatrix};

struct Cli {
    file: Option<String>,
    gen_name: Option<String>,
    scale: usize,
    ranks: usize,
    nb: Option<usize>,
    schedule: ScheduleMode,
    policy: SchedulePolicy,
    transport: TransportKind,
    ordering: FillReducing,
    balance: bool,
    adaptive: bool,
    precision: Precision,
    probe_every: usize,
    refine: Option<f64>,
    refactor_reps: usize,
    rhs: Option<String>,
    out: Option<String>,
    report_json: Option<String>,
}

fn usage() -> ! {
    eprint!("{}", USAGE);
    std::process::exit(2);
}

const USAGE: &str = "\
usage: pangulu [OPTIONS] (-F <matrix.mtx> | --gen <name>)
  -F, --file <path>      matrix market input
      --gen <name>       generate a suite analog instead (see --list)
      --scale <k>        generator scale factor             [default 1]
  -np, --ranks <p>       simulated MPI ranks                [default 1]
      --nb <n>           tile size (default: heuristic)
      --schedule <s>     sync-free | level-set        [default sync-free]
      --policy <p>       fifo | priority | priority-stealing
                                                         [default priority]
      --transport <t>    channel | shm | tcp | uds        [default channel]
      --ordering <o>     auto | amd | nd | rcm | natural    [default auto]
      --no-balance       disable the static load balancer
      --no-adaptive      disable decision-tree kernel selection
      --precision <p>    f64 | mixed (f32 factor + refined solve)
                                                           [default f64]
      --probe-every <k>  mixed acceptance-probe cadence: probe on the
                         first factor, then every k-th refactor
                         (pivot drift re-probes early)      [default 4]
      --refine <tol>     iterative refinement to the given tolerance
      --refactor-reps <n> re-run the numeric-only refactorisation n times
      --rhs <path>       right-hand side file (one value per line)
      --out <path>       write the solution vector
      --report-json <p>  write the per-rank metrics RunReport (multi-rank)
      --list             list generator names and exit
";

fn parse_args() -> Cli {
    let mut cli = Cli {
        file: None,
        gen_name: None,
        scale: 1,
        ranks: 1,
        nb: None,
        schedule: ScheduleMode::SyncFree,
        policy: SchedulePolicy::default(),
        transport: TransportKind::default(),
        ordering: FillReducing::Auto,
        balance: true,
        adaptive: true,
        precision: Precision::F64,
        probe_every: 4,
        refine: None,
        refactor_reps: 0,
        rhs: None,
        out: None,
        report_json: None,
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-F" | "--file" => cli.file = Some(next(&mut args, "-F")),
            "--gen" => cli.gen_name = Some(next(&mut args, "--gen")),
            "--scale" => cli.scale = next(&mut args, "--scale").parse().unwrap_or_else(|_| usage()),
            "-np" | "--ranks" => {
                cli.ranks = next(&mut args, "--ranks").parse().unwrap_or_else(|_| usage())
            }
            "--nb" => cli.nb = Some(next(&mut args, "--nb").parse().unwrap_or_else(|_| usage())),
            "--schedule" => {
                cli.schedule = match next(&mut args, "--schedule").as_str() {
                    "sync-free" => ScheduleMode::SyncFree,
                    "level-set" => ScheduleMode::LevelSet,
                    other => {
                        eprintln!("unknown schedule {other:?}");
                        usage()
                    }
                }
            }
            "--policy" => {
                cli.policy = match next(&mut args, "--policy").as_str() {
                    "fifo" => SchedulePolicy::Fifo,
                    "priority" => SchedulePolicy::Priority,
                    "priority-stealing" => SchedulePolicy::PriorityStealing,
                    other => {
                        eprintln!("unknown policy {other:?}");
                        usage()
                    }
                }
            }
            "--transport" => {
                cli.transport =
                    next(&mut args, "--transport").parse().unwrap_or_else(|e: String| {
                        eprintln!("{e}");
                        usage()
                    })
            }
            "--ordering" => {
                cli.ordering = match next(&mut args, "--ordering").as_str() {
                    "auto" => FillReducing::Auto,
                    "amd" => FillReducing::Amd,
                    "nd" => FillReducing::NestedDissection,
                    "rcm" => FillReducing::Rcm,
                    "natural" => FillReducing::Natural,
                    other => {
                        eprintln!("unknown ordering {other:?}");
                        usage()
                    }
                }
            }
            "--no-balance" => cli.balance = false,
            "--precision" => {
                cli.precision = match next(&mut args, "--precision").as_str() {
                    "f64" => Precision::F64,
                    "mixed" => Precision::MixedF32,
                    other => {
                        eprintln!("unknown precision {other:?}");
                        usage()
                    }
                }
            }
            "--no-adaptive" => cli.adaptive = false,
            "--probe-every" => {
                cli.probe_every =
                    next(&mut args, "--probe-every").parse().unwrap_or_else(|_| usage())
            }
            "--refine" => {
                cli.refine = Some(next(&mut args, "--refine").parse().unwrap_or_else(|_| usage()))
            }
            "--refactor-reps" => {
                cli.refactor_reps =
                    next(&mut args, "--refactor-reps").parse().unwrap_or_else(|_| usage())
            }
            "--rhs" => cli.rhs = Some(next(&mut args, "--rhs")),
            "--out" => cli.out = Some(next(&mut args, "--out")),
            "--report-json" => cli.report_json = Some(next(&mut args, "--report-json")),
            "--list" => {
                for pm in PAPER_MATRICES {
                    println!("{:<18} {}", pm.name, pm.domain);
                }
                std::process::exit(0);
            }
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    cli
}

fn load_matrix(cli: &Cli) -> Result<CscMatrix, String> {
    match (&cli.file, &cli.gen_name) {
        (Some(path), None) => {
            io::read_matrix_market(path).map_err(|e| format!("reading {path}: {e}"))
        }
        (None, Some(name)) => {
            if !PAPER_MATRICES.iter().any(|pm| pm.name == *name) {
                return Err(format!("unknown generator {name:?}; try --list"));
            }
            Ok(gen::paper_matrix(name, cli.scale))
        }
        _ => Err("exactly one of -F <file> or --gen <name> is required".into()),
    }
}

fn load_rhs(cli: &Cli, n: usize) -> Result<Vec<f64>, String> {
    match &cli.rhs {
        None => Ok(vec![1.0; n]),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let vals: Result<Vec<f64>, _> =
                text.split_whitespace().map(|t| t.parse::<f64>()).collect();
            let vals = vals.map_err(|e| format!("parsing {path}: {e}"))?;
            if vals.len() != n {
                return Err(format!("rhs has {} values, matrix has {n} rows", vals.len()));
            }
            Ok(vals)
        }
    }
}

fn main() -> ExitCode {
    let cli = parse_args();
    let a = match load_matrix(&cli) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("matrix: {} x {}, {} nonzeros", a.nrows(), a.ncols(), a.nnz());

    if cli.transport.needs_sockets() && !pangulu::comm::sockets_available() {
        eprintln!(
            "error: --transport {} needs localhost sockets, which this environment forbids \
             (try --transport shm)",
            cli.transport
        );
        return ExitCode::from(2);
    }

    let mut builder = Solver::builder()
        .ranks(cli.ranks)
        .schedule(cli.schedule)
        .schedule_policy(cli.policy)
        .transport(cli.transport)
        .fill_reducing(cli.ordering)
        .adaptive_kernels(cli.adaptive)
        .load_balance(cli.balance)
        .precision(cli.precision)
        .probe_every(cli.probe_every);
    if let Some(nb) = cli.nb {
        builder = builder.block_size(nb);
    }
    let mut solver = match builder.build(&a) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("factorisation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let s = solver.stats();
    let sym = s.symbolic.expect("symbolic stats");
    println!(
        "reorder {:.1?} | symbolic {:.1?} | preprocess {:.1?} | numeric {:.1?}",
        s.reorder_time, s.symbolic_time, s.preprocess_time, s.numeric_time
    );
    println!("ordering: {}", solver.reordering().ordering_summary());
    println!("kernel plans: {}", solver.kernel_plans_summary());
    println!(
        "nnz(L+U) {} ({:.2}x fill) | {:.3e} flops | {:.2} gflop/s | nb {} | {} blocks",
        sym.nnz_lu,
        sym.fill_ratio,
        sym.flops,
        s.gflops(),
        s.block_size,
        s.num_blocks
    );
    if let Some(d) = &s.dist {
        println!(
            "ranks {} | {} msgs | {} KiB | mean sync wait {:.1?}",
            cli.ranks,
            d.messages,
            d.bytes / 1024,
            d.mean_sync_wait()
        );
    }
    if let Some(report) = &s.report {
        let sc = report.total_sched();
        if sc.steals > 0 || sc.lookahead_hits > 0 {
            println!(
                "sched: {} steals | {} KiB stolen | {} lookahead hits | {} inversions",
                sc.steals,
                sc.steal_bytes / 1024,
                sc.lookahead_hits,
                sc.priority_inversions
            );
        }
    }
    if s.perturbed_pivots > 0 {
        println!("static pivoting perturbed {} pivots", s.perturbed_pivots);
    }
    if cli.precision == Precision::MixedF32 {
        let pc = solver.precision_counters();
        match solver.effective_precision() {
            Precision::MixedF32 => println!(
                "precision: mixed f32 factors | probe refinement {} iters",
                pc.probe_refine_iters
            ),
            Precision::F64 => println!(
                "precision: fell back to f64 (f32 refinement stalled; {} fallback)",
                pc.precision_fallbacks
            ),
        }
    }
    if let Some(path) = &cli.report_json {
        match &s.report {
            Some(report) => {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("metrics report written to {path}");
            }
            None => eprintln!(
                "note: --report-json needs a multi-rank run (-np 2 or more); no report written"
            ),
        }
    }

    if cli.refactor_reps > 0 {
        let first_numeric = s.numeric_time;
        let first_pipeline = s.reorder_time + s.symbolic_time + s.preprocess_time + s.numeric_time;
        let mut steady = std::time::Duration::MAX;
        for _ in 0..cli.refactor_reps {
            let t = std::time::Instant::now();
            if let Err(e) = solver.refactor(&a) {
                eprintln!("refactorisation failed: {e}");
                return ExitCode::FAILURE;
            }
            steady = steady.min(t.elapsed());
        }
        let ph = solver.stats().phases;
        println!(
            "refactor: {} reps | first factor {:.1?} (full pipeline {:.1?}) | steady min {:.1?}",
            cli.refactor_reps, first_numeric, first_pipeline, steady
        );
        println!(
            "phases: reorder x{} | symbolic x{} | preprocess x{} | numeric x{} | analysis reuses {}",
            ph.reorder_runs, ph.symbolic_runs, ph.preprocess_runs, ph.numeric_runs,
            ph.analysis_reuses
        );
        println!("kernel plans: {}", solver.kernel_plans_summary());
        if cli.precision == Precision::MixedF32 {
            let pc = solver.precision_counters();
            println!(
                "precision: {} probes skipped of {} mixed factors (cadence {})",
                pc.probe_skips,
                pc.mixed_factors,
                cli.probe_every.max(1)
            );
        }
    }

    let b = match load_rhs(&cli, a.nrows()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (x, resid) = match cli.refine {
        Some(tol) => match solver.solve_refined(&a, &b, tol, 10) {
            Ok((x, r, iters)) => {
                println!("refinement: {iters} corrections");
                (x, r)
            }
            Err(e) => {
                eprintln!("solve failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match solver.solve(&b) {
            Ok(x) => {
                let r = ops::relative_residual(&a, &x, &b).expect("residual");
                (x, r)
            }
            Err(e) => {
                eprintln!("solve failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!("relative residual {resid:.3e}");
    if cli.precision == Precision::MixedF32 {
        let pc = solver.precision_counters();
        if pc.refined_solves > 0 {
            println!(
                "precision: {} refined solves | {} refinement iters total",
                pc.refined_solves, pc.refine_iters
            );
        }
    }

    if let Some(path) = &cli.out {
        let mut f = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for v in &x {
            writeln!(f, "{v:.17e}").expect("write solution");
        }
        println!("solution written to {path}");
    }
    ExitCode::SUCCESS
}

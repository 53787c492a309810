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
//!       --ordering <o>     auto | amd | nd | rcm | natural  [default auto]
//!       --precision <p>    f64 | mixed (f32 factor + refined solve)
//!                                                            [default f64]
//!       --refine <tol>     iterative refinement to the given tolerance
//!       --refactor-reps <n> re-run the numeric-only refactorisation n times
//!       --rhs <path>       right-hand side file (one value per line)
//!       --out <path>       write the solution vector
//!       --report-json <p>  write the per-rank metrics RunReport (multi-rank)
//!       --list             list the generator names and exit
//! ```

use std::io::Write;
use std::process::ExitCode;

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
    ordering: FillReducing,
    precision: Precision,
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
      --ordering <o>     auto | amd | nd | rcm | natural    [default auto]
      --precision <p>    f64 | mixed (f32 factor + refined solve)
                                                           [default f64]
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
        ordering: FillReducing::Auto,
        precision: Precision::F64,
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
            "--refine" => {
                let tol: f64 = next(&mut args, "--refine").parse().unwrap_or_else(|_| usage());
                if !(tol.is_finite() && tol > 0.0) {
                    eprintln!("--refine needs a positive finite tolerance, got {tol}");
                    usage();
                }
                cli.refine = Some(tol);
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

    let mut builder =
        Solver::builder().ranks(cli.ranks).fill_reducing(cli.ordering).precision(cli.precision);
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
    println!("ordering: {}", solver.ordering().ordering_summary());
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
    if let Some(r) = &s.report {
        println!(
            "ranks {} | {} msgs | {} KiB | mean sync wait {:.0}%",
            cli.ranks,
            r.total_messages(),
            r.total_bytes() / 1024,
            100.0 * r.mean_sync_fraction()
        );
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
                "precision: {} probes skipped of {} mixed factors",
                pc.probe_skips, pc.mixed_factors
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
        if let Err(e) = write_solution(path, &x) {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("solution written to {path}");
    }
    ExitCode::SUCCESS
}

/// Writes one value per line. Errors surface at the final flush at the
/// latest, so a full disk is reported rather than silently truncating.
fn write_solution(path: &str, x: &[f64]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for v in x {
        writeln!(f, "{v:.17e}")?;
    }
    f.flush()
}

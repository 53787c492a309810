//! Regenerates every table and figure of the paper's evaluation (the
//! artifact's `all.sh`): runs each experiment of
//! [`pangulu_bench::experiments::EXPERIMENTS`] in turn, in this process,
//! and writes its CSV to stdout and under `data/` (or
//! `PANGULU_DATA_DIR`).
//!
//! ```sh
//! cargo run --release -p pangulu-bench --bin figures [name ...]
//! ```
//!
//! Given names, it runs only those experiments. An unknown name exits 2
//! with the list; a failing experiment stops the run and exits 1.

use std::process::ExitCode;

use pangulu_bench::emit_csv;
use pangulu_bench::experiments::EXPERIMENTS;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| !EXPERIMENTS.iter().any(|e| e.name == *n)) {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("figures: unknown experiment '{unknown}'");
        eprintln!("usage: figures [name ...]   names: {}", all.join(" "));
        return ExitCode::from(2);
    }
    for e in EXPERIMENTS.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.name)) {
        eprintln!("=== running {} ===", e.name);
        let written = (e.run)().and_then(|csv| Ok(emit_csv(csv.file, &csv.header, &csv.rows)?));
        if let Err(err) = written {
            eprintln!("figures: {} failed: {err}", e.name);
            return ExitCode::FAILURE;
        }
    }
    eprintln!("=== figures done ===");
    ExitCode::SUCCESS
}

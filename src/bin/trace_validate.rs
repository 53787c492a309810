//! CI gate: run one traced multi-rank factorisation (with a mildly
//! adversarial fault plan) and feed it through the schedule-trace
//! validator. Exits non-zero if any invariant — dependency order,
//! exactly-once task execution, exactly-once message delivery — is
//! violated. See `docs/FAULT_INJECTION.md`.

use std::time::Duration;

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig, ScheduleMode};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::trace_check::validate_run;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        None => 1,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("trace_validate: fault seed {arg:?} is not a non-negative integer");
            eprintln!("usage: trace_validate [seed]");
            std::process::exit(2);
        }),
    };
    let a = gen::laplacian_2d(24, 23);
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, 12).unwrap();
    let tg = TaskGraph::build(&bm);
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(2, 2), &tg);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());

    let plan = FaultPlan::adversarial(seed);
    eprintln!(
        "[trace_validate] seed {seed}: delay_prob {:.2}, reorder_depth {}, drop_prob {:.2}",
        plan.delay_prob, plan.reorder_depth, plan.drop_prob
    );
    let cfg = FactorConfig::with_mode(ScheduleMode::SyncFree)
        .with_fault(plan)
        .with_stall_timeout(Duration::from_secs(60))
        .traced();

    let mut factored = bm.clone();
    let run = match factor_distributed_checked(&mut factored, &tg, &owners, &sel, 1e-12, &cfg) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("[trace_validate] FAIL: factorisation stalled: {e}");
            std::process::exit(1);
        }
    };
    let report = validate_run(&bm, &tg, &owners, &run);
    println!(
        "[trace_validate] {} tasks, {} prescribed transfers, {} trace events, {} messages, {} retries",
        report.tasks_checked,
        report.transfers_checked,
        run.trace.len(),
        run.stats.messages,
        run.stats.retried_sends,
    );
    if report.is_valid() {
        println!("[trace_validate] OK: zero violations");
    } else {
        eprintln!("[trace_validate] FAIL: {} violations", report.violations.len());
        for v in report.violations.iter().take(20) {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

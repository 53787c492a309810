//! Timeline dump: runs the real distributed executor in traced mode
//! under both scheduling policies and writes Gantt-style CSVs
//! (`data/timeline_<policy>.csv`) — the per-rank schedules behind the
//! paper's Fig. 10 narrative. A quick summary (makespan, busy fraction)
//! prints per policy.
//!
//! ```sh
//! cargo run --release -p pangulu-bench --bin timeline [matrix] [ranks]
//! ```

use pangulu_comm::ProcessGrid;
use pangulu_core::dist::{factor_distributed_checked, FactorConfig, ScheduleMode};
use pangulu_core::layout::OwnerMap;
use pangulu_core::task::Task;
use pangulu_kernels::select::{KernelSelector, Thresholds};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(|s| s.as_str()).unwrap_or("ASIC_680k");
    let ranks: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let a = pangulu_bench::load(name);
    let prep = pangulu_bench::prepare(&a, ranks);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());

    for (label, mode) in
        [("sync_free", ScheduleMode::SyncFree), ("level_set", ScheduleMode::LevelSet)]
    {
        let mut bm = prep.bm.clone();
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(ranks), &prep.tg);
        let cfg = FactorConfig::with_mode(mode).traced();
        let run = factor_distributed_checked(&mut bm, &prep.tg, &owners, &sel, 1e-12, &cfg)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let (stats, trace) = (run.stats, run.trace);

        let mut rows = Vec::with_capacity(trace.len());
        for e in &trace {
            let (kind, tgt) = match e.task {
                Task::Getrf { k } => ("GETRF", (k, k)),
                Task::Gessm { k, j } => ("GESSM", (k, j)),
                Task::Tstrf { i, k } => ("TSTRF", (i, k)),
                Task::Ssssm { i, j, k } => {
                    let _ = k;
                    ("SSSSM", (i, j))
                }
            };
            rows.push(format!(
                "{},{kind},{},{},{},{:.9},{:.9}",
                e.rank,
                tgt.0,
                tgt.1,
                e.task.step(),
                e.start.as_secs_f64(),
                e.end.as_secs_f64()
            ));
        }
        pangulu_bench::emit_csv(
            &format!("timeline_{label}"),
            "rank,kernel,bi,bj,step,start_s,end_s",
            &rows,
        );
        let busy: f64 = stats.busy.iter().map(|d| d.as_secs_f64()).sum();
        eprintln!(
            "[timeline] {name} {label}: wall {:.1?}, {} events, mean busy fraction {:.1}%",
            stats.wall_time,
            trace.len(),
            100.0 * busy / (ranks as f64 * stats.wall_time.as_secs_f64())
        );
    }
}

//! Timeline dump: runs the real distributed executor in traced mode
//! under the sync-free schedule and writes a Gantt-style CSV
//! (`data/timeline_sync_free.csv`) — the per-rank schedule behind the
//! paper's Fig. 10 narrative, on `ASIC_680k` at 4 ranks. A quick
//! summary (makespan, busy fraction) prints to stderr.

use pangulu_comm::ProcessGrid;
use pangulu_core::dist::{factor_distributed_checked, FactorConfig};
use pangulu_core::layout::OwnerMap;
use pangulu_core::task::Task;
use pangulu_kernels::select::{KernelSelector, Thresholds};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let (name, ranks) = ("ASIC_680k", 4);

    let a = crate::load(name);
    let prep = crate::prepare(&a, ranks)?;
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());

    let mut bm = prep.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::new(ranks), &prep.tg);
    let cfg = FactorConfig::default().traced();
    let run = factor_distributed_checked(&mut bm, &prep.tg, &owners, &sel, 1e-12, &cfg)
        .map_err(|e| format!("{name}: {e}"))?;
    let (stats, trace) = (run.stats, run.trace);

    let mut rows = Vec::with_capacity(trace.len());
    for e in &trace {
        let (kind, tgt) = match e.task {
            Task::Getrf { k } => ("GETRF", (k, k)),
            Task::Gessm { k, j } => ("GESSM", (k, j)),
            Task::Tstrf { i, k } => ("TSTRF", (i, k)),
            Task::Ssssm { i, j, .. } => ("SSSSM", (i, j)),
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
    let busy: f64 = stats.busy.iter().map(|d| d.as_secs_f64()).sum();
    eprintln!(
        "[timeline] {name} sync_free: wall {:.1?}, {} events, mean busy fraction {:.1}%",
        stats.wall_time,
        trace.len(),
        100.0 * busy / (ranks as f64 * stats.wall_time.as_secs_f64())
    );
    Ok(Csv::new("timeline_sync_free", "rank,kernel,bi,bj,step,start_s,end_s", rows))
}

//! Sync-wait-under-faults study: how much synchronisation time the
//! synchronisation-free scheduler accumulates as injected communication
//! faults get more severe.
//!
//! For each severity level the same seeded `FaultPlan` shape is scaled
//! up (delay probability/magnitude, reorder depth) and the **real**
//! multi-threaded executor runs a 2×2-grid numeric factorisation; the
//! CSV reports wall time, mean sync wait, message counts and receive
//! timeouts. `PANGULU_MATRICES` / `PANGULU_SCALE` restrict or scale
//! the suite.

use std::time::Duration;

use pangulu_comm::{FaultPlan, ProcessGrid};
use pangulu_core::dist::{factor_distributed_checked, FactorConfig};
use pangulu_core::layout::OwnerMap;
use pangulu_kernels::select::{KernelSelector, Thresholds};

use crate::{Csv, Result};

/// One severity step of the sweep: `level` in 0..=4, 0 = fault-free.
fn plan_at(level: u32, seed: u64) -> Option<FaultPlan> {
    if level == 0 {
        return None;
    }
    let s = level as f64 / 4.0;
    Some(
        FaultPlan::reliable(seed)
            .with_delays(0.2 * s + 0.1, Duration::from_micros((1500.0 * s) as u64 + 50))
            .with_reordering(level as usize),
    )
}

pub fn run() -> Result<Csv> {
    let matrices = ["ecology1", "G3_circuit", "cage12"];
    let wanted = crate::suite();
    let mut rows = Vec::new();
    for name in matrices {
        if !wanted.contains(&name) {
            continue;
        }
        let a = crate::load(name);
        let prep = crate::prepare(&a, 4)?;
        let owners = OwnerMap::balanced(&prep.bm, ProcessGrid::with_shape(2, 2), &prep.tg);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        for level in 0..=4u32 {
            let mut bm = prep.bm.clone();
            let mut cfg = FactorConfig::default();
            if let Some(plan) = plan_at(level, 1000 + level as u64) {
                cfg = cfg.with_fault(plan);
            }
            let run = factor_distributed_checked(&mut bm, &prep.tg, &owners, &sel, 1e-8, &cfg)
                .map_err(|e| format!("{name} level {level}: {e}"))?;
            let st = &run.stats;
            rows.push(format!(
                "{name},{level},{:.6},{:.6},{},{}",
                st.wall_time.as_secs_f64(),
                st.mean_sync_wait().as_secs_f64(),
                st.messages,
                st.recv_timeouts,
            ));
            eprintln!("[fault_study] {name} severity {level} done");
        }
    }
    Ok(Csv::new(
        "fault_study",
        "matrix,severity,wall_s,mean_sync_wait_s,messages,recv_timeouts",
        rows,
    ))
}

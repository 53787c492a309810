//! Figure 5 (motivation §3.3): ratio of synchronisation time to numeric
//! factorisation time of the **level-set supernodal baseline** as the
//! rank count grows from 1 to 64. The ratio climbs with rank count —
//! the synchronisation cost PanguLU's sync-free scheduling removes.
//!
//! Replayed by the discrete-event simulator over the baseline's real
//! task DAG on the A100-class profile (see DESIGN.md).

use pangulu_comm::PlatformProfile;
use pangulu_core::des::{simulate, SimMode};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let matrices =
        ["Si87H76", "ASIC_680k", "nlpkkt80", "CoupCons3D", "dielFilterV3real", "ecology1"];
    let ranks = [1usize, 2, 4, 8, 16, 32, 64];
    let prof = PlatformProfile::a100_like();
    let mut rows = Vec::new();
    for name in matrices {
        let a = crate::load(name);
        let prep = crate::prepare(&a, 1)?;
        let sn = crate::prepare_supernodal(&prep.reordered)?;
        for &p in &ranks {
            let tasks = crate::supernodal_sim_tasks(&sn.dag, p, &prof);
            let r = simulate(&tasks, p, &prof, SimMode::LevelSet);
            let ratio = 100.0 * r.mean_sync_wait() / r.makespan.max(1e-30);
            rows.push(format!("{name},{p},{:.2}", ratio));
        }
        eprintln!("[fig05] {name} done");
    }
    Ok(Csv::new("fig05_sync_ratio", "matrix,ranks,sync_pct_of_numeric", rows))
}

//! Where the simulated time goes (extension of Table 4 to scale): for
//! every suite matrix, the fraction of kernel time per class — PanguLU's
//! sparse GETRF / TRSM / SSSSM against the baseline's factor / TRSM /
//! dense GEMM (gather/scatter included in its GEMM cost).

use pangulu_comm::PlatformProfile;
use pangulu_core::des::{pangulu_sim_tasks, simulate, SimMode};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let prof = PlatformProfile::a100_like();
    let p = 1usize; // single-device breakdown, like Table 4
    let mut rows = Vec::new();
    for name in crate::suite() {
        let a = crate::load(name);
        let prep = crate::prepare(&a, 1)?;
        let owners = crate::owners_for(&prep, p);
        let tasks = pangulu_sim_tasks(&prep.bm, &prep.tg, &owners);
        let pr = simulate(&tasks, p, &prof, SimMode::SyncFree);
        let ptotal: f64 = pr.class_busy.iter().sum();

        let sn = crate::prepare_supernodal(&prep.reordered)?;
        let stasks = crate::supernodal_sim_tasks(&sn.dag, p, &prof);
        let sr = simulate(&stasks, p, &prof, SimMode::LevelSet);
        let stotal: f64 = sr.class_busy.iter().sum();

        rows.push(format!(
            "{name},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}",
            100.0 * pr.class_busy[0] / ptotal,
            100.0 * pr.class_busy[1] / ptotal,
            100.0 * pr.class_busy[2] / ptotal,
            100.0 * sr.class_busy[0] / stotal,
            100.0 * sr.class_busy[1] / stotal,
            100.0 * sr.class_busy[3] / stotal,
        ));
        eprintln!("[breakdown] {name} done");
    }
    Ok(Csv::new(
        "time_breakdown",
        "matrix,pangulu_getrf_pct,pangulu_trsm_pct,pangulu_ssssm_pct,\
         supernodal_factor_pct,supernodal_trsm_pct,supernodal_gemm_pct",
        rows,
    ))
}

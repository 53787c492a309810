//! Figure 13: synchronisation time on 128 ranks — the level-set
//! supernodal baseline vs. PanguLU's synchronisation-free scheduling
//! (paper: 2.20x mean advantage). Replayed by the discrete-event
//! simulator on the A100-class profile.

use pangulu_comm::PlatformProfile;
use pangulu_core::des::{pangulu_sim_tasks, simulate, SimMode};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let p = 128usize;
    let prof = PlatformProfile::a100_like();
    let mut rows = Vec::new();
    let mut geo = 0.0f64;
    let mut count = 0usize;
    for name in crate::suite() {
        let a = crate::load(name);
        let prep = crate::prepare(&a, 1)?;
        let sn = crate::prepare_supernodal(&prep.reordered)?;

        let owners = crate::owners_for(&prep, p);
        let ptasks = pangulu_sim_tasks(&prep.bm, &prep.tg, &owners);
        let pr = simulate(&ptasks, p, &prof, SimMode::SyncFree);

        let stasks = crate::supernodal_sim_tasks(&sn.dag, p, &prof);
        let sr = simulate(&stasks, p, &prof, SimMode::LevelSet);

        let speedup = sr.mean_sync_wait() / pr.mean_sync_wait().max(1e-30);
        geo += speedup.ln();
        count += 1;
        rows.push(format!(
            "{name},{:.6e},{:.6e},{speedup:.2}",
            sr.mean_sync_wait(),
            pr.mean_sync_wait()
        ));
        eprintln!("[fig13] {name}: {speedup:.2}x");
    }
    rows.push(format!("geomean,,,{:.2}", (geo / count.max(1) as f64).exp()));
    Ok(Csv::new("fig13_sync128", "matrix,supernodal_sync_s,pangulu_sync_s,speedup", rows))
}

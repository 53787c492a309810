//! Figure 12: numeric-factorisation performance (GFLOP/s) of PanguLU vs.
//! the supernodal baseline on 1→128 ranks, on the A100-class and
//! MI50-class platform profiles.
//!
//! Replayed by the discrete-event simulator over both solvers' real task
//! DAGs (DESIGN.md substitution). GFLOP/s are normalised by the *sparse*
//! FLOP count for both solvers, as achieved-performance plots do — the
//! baseline's padded FLOPs are wasted work, not credit.

use pangulu_comm::PlatformProfile;
use pangulu_core::des::{pangulu_sim_tasks, simulate, SimMode};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let ranks = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let profiles = [PlatformProfile::a100_like(), PlatformProfile::mi50_like()];
    let mut rows = Vec::new();
    for name in crate::suite() {
        let a = crate::load(name);
        // One blocking for the whole sweep (PanguLU picks the tile size
        // from the matrix, not the process count); 8 ranks as the middle
        // ground keeps >= 32 tiles per side for the big grids.
        let prep = crate::prepare(&a, 8)?;
        let sn = crate::prepare_supernodal(&prep.reordered)?;
        for &p in &ranks {
            let owners = crate::owners_for(&prep, p);
            let ptasks = pangulu_sim_tasks(&prep.bm, &prep.tg, &owners);
            for prof in &profiles {
                // PanguLU: balanced map, sync-free scheduling.
                let pr = simulate(&ptasks, p, prof, SimMode::SyncFree);
                // Baseline: 2-D cyclic supernode map, level-set barriers.
                let stasks = crate::supernodal_sim_tasks(&sn.dag, p, prof);
                let sr = simulate(&stasks, p, prof, SimMode::LevelSet);
                rows.push(format!(
                    "{name},{},{p},{:.3},{:.3},{:.3e},{:.3e}",
                    prof.name,
                    pr.gflops(prep.flops),
                    sr.gflops(prep.flops),
                    pr.makespan,
                    sr.makespan
                ));
            }
        }
        eprintln!("[fig12] {name} done");
    }
    Ok(Csv::new(
        "fig12_scaling",
        "matrix,platform,ranks,pangulu_gflops,supernodal_gflops,pangulu_s,supernodal_s",
        rows,
    ))
}

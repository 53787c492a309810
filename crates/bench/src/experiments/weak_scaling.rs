//! Extension study (not in the paper): weak scaling.
//!
//! The paper's Figure 12 is strong scaling (fixed problem, more ranks).
//! This companion grows the problem with the rank count — 2-D Laplacians
//! with ~constant work per rank — and reports the per-rank throughput
//! relative to the 1-rank run under both scheduling policies. Values
//! above 1 reflect launch-overhead amortisation on the larger per-rank
//! blocks; the claim under test is the *gap between the two policies*:
//! sync-free scheduling holds per-rank throughput increasingly better
//! than level-set as the barrier count grows with the block grid.

use pangulu_comm::PlatformProfile;
use pangulu_core::des::{pangulu_sim_tasks, simulate, SimMode};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let prof = PlatformProfile::a100_like();
    let mut rows = Vec::new();
    // Per-rank work rate at p = 1.
    let mut base: Option<(f64, f64)> = None;
    // 2-D Laplacian LU costs Θ(n^{3/2}) flops, so constant work per rank
    // needs n ∝ p^{2/3} (nx ∝ p^{1/3}).
    for &(p, nx) in &[(1usize, 24usize), (4, 38), (16, 60), (64, 96)] {
        let a = pangulu_sparse::gen::laplacian_2d(nx, nx);
        let prep = crate::prepare(&a, p)?;
        let owners = crate::owners_for(&prep, p);
        let tasks = pangulu_sim_tasks(&prep.bm, &prep.tg, &owners);
        let sf = simulate(&tasks, p, &prof, SimMode::SyncFree);
        let ls = simulate(&tasks, p, &prof, SimMode::LevelSet);
        // Efficiency: (flops / rank / time) relative to the 1-rank run.
        let rate_sf = prep.flops / p as f64 / sf.makespan;
        let rate_ls = prep.flops / p as f64 / ls.makespan;
        let (b_sf, b_ls) = *base.get_or_insert((rate_sf, rate_ls));
        rows.push(format!(
            "{p},{nx},{:.3e},{:.3},{:.3}",
            prep.flops,
            rate_sf / b_sf,
            rate_ls / b_ls
        ));
        eprintln!(
            "[weak] p={p} n={} eff sync-free {:.2} level-set {:.2}",
            nx * nx,
            rate_sf / b_sf,
            rate_ls / b_ls
        );
    }
    Ok(Csv::new("weak_scaling", "ranks,grid,flops,syncfree_efficiency,levelset_efficiency", rows))
}

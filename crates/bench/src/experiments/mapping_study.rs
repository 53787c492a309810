//! Mapping ablation (extension study): why the paper's layout is
//! *two-dimensional* block-cyclic with load balancing. Compares four
//! owner maps in the discrete-event simulator:
//!
//! * 1-D row cyclic, 1-D column cyclic — the strawmen: whole block rows
//!   (or columns) serialise on one rank;
//! * 2-D block cyclic — the paper's baseline layout;
//! * 2-D balanced — plus the §4.2 time-slice load balancer.

use pangulu_comm::{PlatformProfile, ProcessGrid};
use pangulu_core::des::{pangulu_sim_tasks, simulate, SimMode};
use pangulu_core::layout::OwnerMap;

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let prof = PlatformProfile::a100_like();
    let mut rows = Vec::new();
    for name in ["ASIC_680k", "nlpkkt80", "audikw_1"] {
        let a = crate::load(name);
        let prep = crate::prepare(&a, 16)?;
        for &p in &[16usize, 64] {
            let maps: [(&str, OwnerMap); 4] = [
                ("1d_row", OwnerMap::row_cyclic(&prep.bm, p)),
                ("1d_col", OwnerMap::col_cyclic(&prep.bm, p)),
                ("2d_cyclic", OwnerMap::block_cyclic(&prep.bm, ProcessGrid::new(p))),
                ("2d_balanced", OwnerMap::balanced(&prep.bm, ProcessGrid::new(p), &prep.tg)),
            ];
            for (label, owners) in maps {
                let tasks = pangulu_sim_tasks(&prep.bm, &prep.tg, &owners);
                let r = simulate(&tasks, p, &prof, SimMode::SyncFree);
                rows.push(format!(
                    "{name},{p},{label},{:.6e},{:.3},{}",
                    r.makespan,
                    owners.imbalance(&prep.tg),
                    r.messages
                ));
            }
        }
        eprintln!("[mapping] {name} done");
    }
    Ok(Csv::new("mapping_study", "matrix,ranks,mapping,simulated_s,flop_imbalance,messages", rows))
}

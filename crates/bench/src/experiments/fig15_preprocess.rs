//! Figure 15: preprocessing time — PanguLU's blocking + value load +
//! task graph + balanced owner map vs. the supernodal baseline's
//! supernode detection + dense block construction. Both measured for
//! real on this machine, starting from the same reordered,
//! symbolically-factored matrix. PanguLU's side runs the sequence
//! `Solver` runs ([`crate::tile`]).

use std::time::Instant;

use pangulu_comm::ProcessGrid;
use pangulu_core::block::BlockMatrix;
use pangulu_core::layout::OwnerMap;
use pangulu_core::task::TaskGraph;

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut rows = Vec::new();
    for name in crate::suite() {
        let a = crate::load(name);
        let r =
            pangulu_reorder::reorder_for_lu(&a, pangulu_reorder::FillReducing::NestedDissection)?;
        let fill = pangulu_symbolic::symbolic_fill(&r.matrix)?;
        let filled = fill.filled_matrix(&r.matrix)?;

        // PanguLU preprocessing: tiling + value load + task graph +
        // balanced map. `from_fill` consumes its pattern, so it gets a
        // clone taken outside the timed region.
        let grid = ProcessGrid::new(128);
        let pattern = fill.clone();
        let t = Instant::now();
        let nb = BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), grid.pr().max(grid.pc()));
        let bm = crate::tile(pattern, &r.matrix, nb)?;
        let tg = TaskGraph::build(&bm);
        let _owners = OwnerMap::balanced(&bm, grid, &tg);
        let pangulu_s = t.elapsed().as_secs_f64();

        // Baseline preprocessing: supernode detection + dense blocks +
        // the level-set scheduling metadata (SuperLU_DIST's pdgstrf setup
        // builds the equivalent elimination-DAG look-ahead structures).
        let t = Instant::now();
        let part = pangulu_supernodal::supernode::detect(
            &fill,
            pangulu_supernodal::supernode::SupernodeOptions::default(),
        );
        let sbm = pangulu_supernodal::SnBlockMatrix::from_filled(&filled, part)?;
        let levels = pangulu_supernodal::dag::supernode_levels(&fill, &sbm);
        let _dag = pangulu_supernodal::dag::build_dag(&sbm, &levels);
        let supernodal_s = t.elapsed().as_secs_f64();

        rows.push(format!(
            "{name},{supernodal_s:.6},{pangulu_s:.6},{:.2}",
            supernodal_s / pangulu_s.max(1e-12)
        ));
        eprintln!("[fig15] {name} done");
    }
    Ok(Csv::new("fig15_preprocess", "matrix,supernodal_s,pangulu_s,speedup", rows))
}

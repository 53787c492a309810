//! Figure 3: uneven supernode-size distribution (motivation §3.1).
//!
//! Reproduces the two heatmaps — the regular-grid matrix (`G3_circuit`
//! analog) concentrates in small supernodes, the FEM matrix (`audikw_1`
//! analog) in much larger ones.

use pangulu_supernodal::stats::supernode_size_histogram;
use pangulu_supernodal::supernode::{detect, SupernodeOptions};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut rows = Vec::new();
    for name in ["G3_circuit", "audikw_1"] {
        let a = crate::load(name);
        let r =
            pangulu_reorder::reorder_for_lu(&a, pangulu_reorder::FillReducing::NestedDissection)?;
        let fill = pangulu_symbolic::symbolic_fill(&r.matrix)?;
        let part = detect(&fill, SupernodeOptions::default());
        let h = supernode_size_histogram(&part);
        for (cb, row) in h.counts.iter().enumerate() {
            for (rb, &count) in row.iter().enumerate() {
                if count > 0 {
                    rows.push(format!("{name},{},{},{}", h.row_edges[rb], h.col_edges[cb], count));
                }
            }
        }
        eprintln!("[fig03] {name}: {} supernodes", part.len());
    }
    Ok(Csv::new("fig03_supernode_sizes", "matrix,rows_bin,cols_bin,count", rows))
}

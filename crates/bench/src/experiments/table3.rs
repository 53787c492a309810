//! Table 3: the matrix suite — order, nnz(A), the supernodal baseline's
//! (padded) nnz(L+U), PanguLU's nnz(L+U), and PanguLU's numeric FLOPs.
//!
//! The paper's point: PanguLU's symmetric-pruned symbolic yields ~11%
//! fewer stored entries than SuperLU_DIST's supernode-padded factor.

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut rows = Vec::new();
    for name in crate::suite() {
        let a = crate::load(name);
        let prep = crate::prepare(&a, 1)?;
        let sn = crate::prepare_supernodal(&prep.reordered)?;
        // SuperLU-style panel storage is the published nnz(L+U) figure;
        // the 2-D dense-block count is what our baseline's GEMMs operate
        // on (reported separately).
        rows.push(format!(
            "{name},{},{},{},{},{},{:.3e}",
            a.nrows(),
            a.nnz(),
            sn.sbm.partition().panel_nnz_lu(),
            sn.sbm.padded_nnz(),
            prep.nnz_lu,
            prep.flops,
        ));
        eprintln!("[table3] {name} done");
    }
    Ok(Csv::new(
        "table3",
        "matrix,n,nnz_A,supernodal_panel_nnz_LU,supernodal_block_nnz_LU,pangulu_nnz_LU,pangulu_flops",
        rows,
    ))
}

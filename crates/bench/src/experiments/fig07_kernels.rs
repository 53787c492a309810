//! Figure 7: execution time of all 17 sparse kernels against the
//! decision-tree feature (nnz for the panel kernels, FLOPs for SSSSM),
//! over sub-matrices harvested from real factorisations of the suite.
//!
//! Use `PANGULU_MATRICES` to restrict the harvest and `PANGULU_SCALE`
//! to grow the blocks.

use crate::kernel_timing::{harvest_matrix, HARVEST_SET};
use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut rows = Vec::new();
    let names: Vec<&str> = if std::env::var("PANGULU_MATRICES").is_ok() {
        crate::suite()
    } else {
        HARVEST_SET.to_vec()
    };
    for name in names {
        let samples = harvest_matrix(name)?;
        eprintln!("[fig07] {name}: {} samples", samples.len());
        for s in samples.iter() {
            rows.push(format!(
                "{name},{},{},{:.6e},{:.6e}",
                s.class, s.variant, s.feature, s.seconds
            ));
        }
    }
    Ok(Csv::new("fig07_kernels", "matrix,kernel,variant,feature,seconds", rows))
}

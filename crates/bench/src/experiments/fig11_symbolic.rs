//! Figure 11: symbolic factorisation time — PanguLU's symmetric-pruned
//! symbolic vs. the SuperLU-style per-column reachability (Gilbert–
//! Peierls with pruning). Both run on the same reordered matrix; the
//! paper reports a 4.45x geometric-mean advantage for PanguLU.

use std::time::Instant;

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut rows = Vec::new();
    let mut geo = 0.0f64;
    let mut count = 0usize;
    for name in crate::suite() {
        let a = crate::load(name);
        let r =
            pangulu_reorder::reorder_for_lu(&a, pangulu_reorder::FillReducing::NestedDissection)?;

        let t = Instant::now();
        let gp = pangulu_symbolic::gp_symbolic(&r.matrix, true)?;
        let superlu_time = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let fill = pangulu_symbolic::symbolic_fill(&r.matrix)?;
        let pangulu_time = t.elapsed().as_secs_f64();

        let speedup = superlu_time / pangulu_time.max(1e-12);
        geo += speedup.ln();
        count += 1;
        rows.push(format!(
            "{name},{superlu_time:.6},{pangulu_time:.6},{speedup:.2},{},{}",
            gp.nnz_lu(),
            fill.nnz_lu()
        ));
        eprintln!("[fig11] {name}: {speedup:.2}x");
    }
    rows.push(format!("geomean,,,{:.2},,", (geo / count.max(1) as f64).exp()));
    Ok(Csv::new(
        "fig11_symbolic",
        "matrix,superlu_style_s,pangulu_s,speedup,gp_nnz_lu,sym_nnz_lu",
        rows,
    ))
}

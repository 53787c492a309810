//! Table 4: single-rank numeric kernel time, panel factorisation vs.
//! Schur complement, PanguLU vs. the supernodal baseline — both measured
//! for real on this machine. The paper's 6.54x geometric mean comes from
//! the baseline's padded dense FLOPs and gather/scatter traffic, both of
//! which this baseline faithfully pays.

use pangulu_core::seq::factor_sequential;
use pangulu_kernels::select::{KernelSelector, Thresholds};
use pangulu_supernodal::{SupernodalLu, SupernodalOptions};

use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut rows = Vec::new();
    let mut geo = 0.0f64;
    let mut count = 0usize;
    for name in crate::suite() {
        let a = crate::load(name);

        // PanguLU, sequential (single "GPU").
        let prep = crate::prepare(&a, 1)?;
        let mut bm = prep.bm.clone();
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let ps = factor_sequential(&mut bm, &prep.tg, &sel, 1e-12);

        // Supernodal baseline, full pipeline (its own preprocessing).
        let lu = SupernodalLu::factor(&a, SupernodalOptions::default())?;
        let ss = lu.stats();

        let speedup = ss.numeric_time().as_secs_f64() / ps.total_time().as_secs_f64().max(1e-12);
        geo += speedup.ln();
        count += 1;
        rows.push(format!(
            "{name},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{speedup:.2}",
            ss.panel_time.as_secs_f64(),
            ps.panel_time().as_secs_f64(),
            ss.schur_time.as_secs_f64(),
            ps.ssssm_time.as_secs_f64(),
            ss.numeric_time().as_secs_f64(),
            ps.total_time().as_secs_f64(),
        ));
        eprintln!("[table4] {name}: {speedup:.2}x");
    }
    rows.push(format!("geomean,,,,,,,{:.2}", (geo / count.max(1) as f64).exp()));
    Ok(Csv::new(
"table4","matrix,supernodal_panel_s,pangulu_panel_s,supernodal_schur_s,pangulu_schur_s,supernodal_all_s,pangulu_all_s,speedup", rows))
}

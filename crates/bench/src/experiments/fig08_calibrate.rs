//! Figure 8: re-calibrates the decision-tree cut points on this machine.
//!
//! Reads the kernel harvest Figure 7 times, then reports, per tree edge,
//! the crossover feature value where the "bigger" variant starts winning.
//! The suggested values go to stderr as a `Thresholds { .. }` literal
//! that can be pasted into `pangulu_kernels::select`, so stdout carries
//! only CSVs. The dense-tile lane is harvested next to the sparse
//! variants on every full block; its measured fill-fraction crossover is
//! printed for information (the shipped cut is the constant
//! `TILE_MIN_FILL`, which cannot change an answer).

use pangulu_kernels::select::TILE_MIN_FILL;

use crate::kernel_timing::{
    crossover, crossover_vs_best, harvest_matrix, tile_fill_crossover, HARVEST_SET,
};
use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    let mut samples = Vec::new();
    for name in HARVEST_SET {
        samples.extend(harvest_matrix(name)?.iter().cloned());
        eprintln!("[fig08] harvested {name}");
    }

    let edges: [(&str, &str, &str, &str); 8] = [
        ("GETRF", "C_V1", "G_V1", "getrf_cpu"),
        ("GETRF", "G_V1", "G_V2", "getrf_gv1"),
        ("GESSM", "C_V1", "C_V2", "gessm_cv1"),
        ("GESSM", "C_V2", "G_V1", "gessm_cv2"),
        ("TSTRF", "C_V1", "C_V2", "tstrf_cv1"),
        ("TSTRF", "C_V2", "G_V1", "tstrf_cv2"),
        ("SSSSM", "C_V1", "C_V2", "ssssm_cv1"),
        ("SSSSM", "C_V2", "G_V1", "ssssm_cpu"),
    ];
    // Planned-vs-unplanned edges: the crossover (if any) is where *some*
    // unplanned variant starts beating planned execution — i.e. the cut
    // above which the selector should stop using the plan and fall back
    // to the classic tree. Planned is compared against the best measured
    // unplanned variant per bucket, not just `C_V1`, because above the
    // `*_cv1` cuts the fallback is the dense-addressed `C_V2`.
    let planned_edges: [(&str, &str); 4] = [
        ("GETRF", "getrf_planned"),
        ("GESSM", "gessm_planned"),
        ("TSTRF", "tstrf_planned"),
        ("SSSSM", "ssssm_planned"),
    ];
    let mut rows = Vec::new();
    eprintln!("// Suggested Thresholds for this machine:");
    for (class, small, big, field) in edges {
        let x = crossover(&samples, class, small, big);
        let cell = x.map(|v| format!("{v:.3e}")).unwrap_or_else(|| "none".into());
        rows.push(format!("{class},{small},{big},{field},{cell}"));
        match x {
            Some(v) => eprintln!("//   {field}: {v:.3e},"),
            None => eprintln!("//   {field}: (no crossover observed; keep default)"),
        }
    }
    for (class, field) in planned_edges {
        let x = crossover_vs_best(&samples, class, "P_V1");
        let cell = x.map(|v| format!("{v:.3e}")).unwrap_or_else(|| "none".into());
        rows.push(format!("{class},P_V1,best,{field},{cell}"));
        match x {
            Some(v) => eprintln!("//   {field}: {v:.3e},"),
            None => eprintln!("//   {field}: (planned never beaten; keep the gate open)"),
        }
    }
    let tile_runs = samples.iter().filter(|s| s.class == "SSSSM" && s.variant == "D_V1").count();
    let x = tile_fill_crossover(&samples);
    let cell = x.map(|v| format!("{v:.1}")).unwrap_or_else(|| "none".into());
    rows.push(format!("SSSSM,best,D_V1,TILE_MIN_FILL (const {TILE_MIN_FILL}),{cell}"));
    match x {
        Some(v) => eprintln!(
            "//   dense-tile lane wins from fill {v:.1} up on this host \
             ({tile_runs} full-target updates; shipped TILE_MIN_FILL = {TILE_MIN_FILL})"
        ),
        None => eprintln!(
            "//   dense-tile lane: no winning fill decile in {tile_runs} full-target updates \
             (shipped TILE_MIN_FILL = {TILE_MIN_FILL})"
        ),
    }
    Ok(Csv::new(
        "fig08_calibration",
        "kernel,small_variant,big_variant,threshold_field,crossover_feature",
        rows,
    ))
}

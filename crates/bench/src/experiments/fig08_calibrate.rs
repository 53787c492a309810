//! Figure 8: re-calibrates the kernel-selection cut points on this machine.
//!
//! Reads the kernel harvest Figure 7 times, then reports, per tree edge
//! of the paper's figure, the crossover feature value where the "bigger"
//! variant starts winning. The CSV names each edge by the paper's cut
//! point. The suggested values go to stderr, so stdout carries only
//! CSVs: the two merge cuts as the constants of
//! `pangulu_kernels::select`, the planned gates as `Thresholds` fields,
//! and the edges the shipped selection never takes as a note. The
//! dense-tile lane is harvested next to the sparse variants on every full
//! block; its measured fill-fraction crossover is printed for information
//! (the shipped cut is the constant `TILE_MIN_FILL`, which cannot change
//! an answer).

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

    // The last field names the selection constant an edge's crossover
    // sets; the other edges lead to variants the shipped selection never
    // picks, so their crossovers are reported as unused.
    let edges: [(&str, &str, &str, &str, Option<&str>); 8] = [
        ("GETRF", "C_V1", "G_V1", "getrf_cpu", None),
        ("GETRF", "G_V1", "G_V2", "getrf_gv1", None),
        ("GESSM", "C_V1", "C_V2", "gessm_cv1", Some("GESSM_MERGE_BELOW")),
        ("GESSM", "C_V2", "G_V1", "gessm_cv2", None),
        ("TSTRF", "C_V1", "C_V2", "tstrf_cv1", Some("TSTRF_MERGE_BELOW")),
        ("TSTRF", "C_V2", "G_V1", "tstrf_cv2", None),
        ("SSSSM", "C_V1", "C_V2", "ssssm_cv1", None),
        ("SSSSM", "C_V2", "G_V1", "ssssm_cpu", None),
    ];
    // Planned-vs-unplanned edges: the crossover (if any) is where *some*
    // unplanned variant starts beating planned execution — i.e. the cut
    // above which the selector should stop using the plan and fall back
    // to the unplanned selection. Planned is compared against the best
    // measured unplanned variant per bucket, not just `C_V1`, because above
    // the merge cuts the fallback is the dense-addressed `C_V2`.
    let planned_edges: [(&str, &str); 4] = [
        ("GETRF", "getrf_planned"),
        ("GESSM", "gessm_planned"),
        ("TSTRF", "tstrf_planned"),
        ("SSSSM", "ssssm_planned"),
    ];
    let mut rows = Vec::new();
    eprintln!("// Suggested selection for this machine (pangulu_kernels::select):");
    for (class, small, big, field, constant) in edges {
        let x = crossover(&samples, class, small, big);
        let cell = x.map(|v| format!("{v:.3e}")).unwrap_or_else(|| "none".into());
        rows.push(format!("{class},{small},{big},{field},{cell}"));
        match (x, constant) {
            (Some(v), Some(name)) => eprintln!("//   const {name}: usize = {v:.0};"),
            (Some(_), None) => eprintln!("//   {class} {small} -> {big} ({field}): {cell}, unused"),
            (None, _) => eprintln!("//   {class} {small} -> {big} ({field}): no crossover"),
        }
    }
    for (class, field) in planned_edges {
        let x = crossover_vs_best(&samples, class, "P_V1");
        let cell = x.map(|v| format!("{v:.3e}")).unwrap_or_else(|| "none".into());
        rows.push(format!("{class},P_V1,best,{field},{cell}"));
        match x {
            Some(v) => eprintln!("//   Thresholds::{field}: {v:.3e}"),
            None => {
                eprintln!("//   Thresholds::{field}: (planned never beaten; keep the gate open)")
            }
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

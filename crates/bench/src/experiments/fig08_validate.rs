//! Decision-tree validation: how often does the Figure 8 tree pick the
//! fastest variant, and how much time does its choice leave on the table
//! versus an oracle that always picks the winner?
//!
//! Uses the same harvested/timed samples as Figure 7.

use std::collections::HashMap;

use pangulu_kernels::select::{KernelSelector, Thresholds};

use crate::kernel_timing::{
    harvest_matrix, label, Sample, GETRF_VARIANTS, HARVEST_SET, SSSSM_VARIANTS, TRSM_VARIANTS,
};
use crate::{Csv, Result};

pub fn run() -> Result<Csv> {
    // Harvest with the same default caps as Figure 7.
    let mut samples: Vec<(String, Sample)> = Vec::new();
    for name in HARVEST_SET {
        // The trees pick among the Table 1 variants only; the planned
        // and dense-tile samples of the harvest are other gates' business.
        for s in harvest_matrix(name)?.iter() {
            if !matches!(s.variant, "P_V1" | "D_V1") {
                samples.push((name.to_string(), s.clone()));
            }
        }
        eprintln!("[fig08v] harvested {name}");
    }

    // Group the per-variant timings of each harvested instance. Instances
    // are identified by (matrix, class, feature) plus arrival order.
    type InstanceKey = (String, &'static str, u64, usize);
    let mut instances: HashMap<InstanceKey, Vec<(String, f64)>> = HashMap::new();
    let mut ordinal: HashMap<(String, &'static str, u64), usize> = HashMap::new();
    let variants_per_class = |class: &str| match class {
        "GETRF" => GETRF_VARIANTS.len(),
        "SSSSM" => SSSSM_VARIANTS.len(),
        _ => TRSM_VARIANTS.len(),
    };
    for (matrix, s) in &samples {
        let fkey = s.feature.to_bits();
        let ord_key = (matrix.clone(), s.class, fkey);
        let count = ordinal.entry(ord_key.clone()).or_insert(0);
        let inst = *count / variants_per_class(s.class);
        *count += 1;
        instances
            .entry((matrix.clone(), s.class, fkey, inst))
            .or_default()
            .push((s.variant.to_string(), s.seconds));
    }

    let selector = KernelSelector::new(1_000, Thresholds::default());
    let mut rows = Vec::new();
    for class in ["GETRF", "GESSM", "TSTRF", "SSSSM"] {
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut tree_time = 0.0f64;
        let mut oracle_time = 0.0f64;
        for ((_, c, fbits, _), variants) in &instances {
            if *c != class {
                continue;
            }
            let feature = f64::from_bits(*fbits);
            // `None` for a variant the harvest does not time (`D_V1`).
            let chosen = match class {
                "GETRF" => label(&GETRF_VARIANTS, selector.getrf(feature as usize)),
                "GESSM" => label(&TRSM_VARIANTS, selector.gessm(feature as usize)),
                "TSTRF" => label(&TRSM_VARIANTS, selector.tstrf(feature as usize)),
                _ => label(&SSSSM_VARIANTS, selector.ssssm(feature)),
            };
            let Some(best) = variants.iter().min_by(|a, b| a.1.total_cmp(&b.1)) else {
                continue;
            };
            let chosen_time =
                variants.iter().find(|(v, _)| chosen == Some(v)).map(|(_, t)| *t).unwrap_or(best.1);
            total += 1;
            if chosen == Some(&best.0) {
                hits += 1;
            }
            tree_time += chosen_time;
            oracle_time += best.1;
        }
        if total > 0 {
            rows.push(format!(
                "{class},{total},{:.1},{:.2}",
                100.0 * hits as f64 / total as f64,
                tree_time / oracle_time
            ));
        }
    }
    Ok(Csv::new("fig08_validation", "kernel,instances,selection_accuracy_pct,time_vs_oracle", rows))
}

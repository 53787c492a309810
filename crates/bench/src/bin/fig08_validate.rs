//! Decision-tree validation: how often does the Figure 8 tree pick the
//! fastest variant, and how much time does its choice leave on the table
//! versus an oracle that always picks the winner?
//!
//! Uses the same harvested/timed samples as Figure 7.

use std::collections::HashMap;

use pangulu_bench::kernel_timing::{harvest, HarvestCaps, Sample};
use pangulu_kernels::select::{KernelSelector, Thresholds};
use pangulu_kernels::{GetrfVariant, SsssmVariant, TrsmVariant};

fn getrf_label(v: GetrfVariant) -> &'static str {
    match v {
        GetrfVariant::CV1 => "C_V1",
        GetrfVariant::GV1 => "G_V1",
        GetrfVariant::GV2 => "G_V2",
    }
}

fn trsm_label(v: TrsmVariant) -> &'static str {
    match v {
        TrsmVariant::CV1 => "C_V1",
        TrsmVariant::CV2 => "C_V2",
        TrsmVariant::GV1 => "G_V1",
        TrsmVariant::GV2 => "G_V2",
        TrsmVariant::GV3 => "G_V3",
        TrsmVariant::DV1 => "D_V1",
    }
}

fn ssssm_label(v: SsssmVariant) -> &'static str {
    match v {
        SsssmVariant::CV1 => "C_V1",
        SsssmVariant::CV2 => "C_V2",
        SsssmVariant::GV1 => "G_V1",
        SsssmVariant::GV2 => "G_V2",
        SsssmVariant::DV1 => "D_V1",
    }
}

fn main() {
    // Harvest with the same default caps as Figure 7.
    let mut samples: Vec<(String, Sample)> = Vec::new();
    for name in ["ASIC_680k", "audikw_1", "cage12", "Si87H76"] {
        let a = pangulu_bench::load(name);
        let prep = pangulu_bench::prepare(&a, 1);
        let mut bm = prep.bm.clone();
        // The trees pick among the Table 1 variants only; the planned
        // and dense-tile samples of the harvest are other gates' business.
        for s in harvest(&mut bm, &prep.tg, HarvestCaps::default()) {
            if !matches!(s.variant, "P_V1" | "D_V1") {
                samples.push((name.to_string(), s));
            }
        }
        eprintln!("[fig08v] harvested {name}");
    }

    // Group the per-variant timings of each harvested instance. Instances
    // are identified by (matrix, class, feature) plus arrival order.
    type InstanceKey = (String, &'static str, u64, usize);
    let mut instances: HashMap<InstanceKey, Vec<(String, f64)>> = HashMap::new();
    let mut ordinal: HashMap<(String, &'static str, u64), usize> = HashMap::new();
    let variants_per_class = |class: &str| -> usize {
        if class == "GETRF" {
            3
        } else if class == "SSSSM" {
            4
        } else {
            5
        }
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
            let chosen = match class {
                "GETRF" => getrf_label(selector.getrf(feature as usize)),
                "GESSM" => trsm_label(selector.gessm(feature as usize)),
                "TSTRF" => trsm_label(selector.tstrf(feature as usize)),
                _ => ssssm_label(selector.ssssm(feature)),
            };
            let best = variants
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("variants timed");
            let chosen_time =
                variants.iter().find(|(v, _)| v == chosen).map(|(_, t)| *t).unwrap_or(best.1);
            total += 1;
            if best.0 == chosen {
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
    pangulu_bench::emit_csv(
        "fig08_validation",
        "kernel,instances,selection_accuracy_pct,time_vs_oracle",
        &rows,
    );
}

//! Kernel harvesting and timing for Figures 7 and 8.
//!
//! Walks a real factorisation schedule and, at sampled steps, times every
//! kernel variant of Table 1 on clones of the live blocks — the same
//! methodology as the paper's Figure 7 (which harvested 4,550 GETRF,
//! 18,786 GESSM/TSTRF and 86,982 SSSSM sub-matrices from the suite).

use std::time::Instant;

use pangulu_core::block::BlockMatrix;
use pangulu_core::task::TaskGraph;
use pangulu_kernels::tile::is_full;
use pangulu_kernels::{
    flops, getrf, plan, ssssm, trsm, GetrfVariant, KernelScratch, SsssmVariant, TrsmVariant,
};
use pangulu_sparse::{CooMatrix, CscMatrix};

/// One timed kernel invocation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Kernel class name (`GETRF`, `GESSM`, `TSTRF`, `SSSSM`).
    pub class: &'static str,
    /// Variant label (`C_V1`, `G_V2`, ...).
    pub variant: &'static str,
    /// The decision-tree feature: nnz for the panel kernels, FLOPs for
    /// SSSSM.
    pub feature: f64,
    /// Best-of-3 execution time in seconds.
    pub seconds: f64,
    /// The dense-tile lane's feature, set on every sample of an SSSSM
    /// instance whose target block is full (the lane's precondition):
    /// model FLOPs over the padded dense count `2·m·k·n`. `0.0` on all
    /// other samples.
    pub fill: f64,
}

/// Caps on harvested instances per kernel class (keeps runtimes sane on
/// one core).
#[derive(Debug, Clone, Copy)]
pub struct HarvestCaps {
    /// Max GETRF instances.
    pub getrf: usize,
    /// Max GESSM instances (TSTRF capped equally).
    pub trsm: usize,
    /// Max SSSSM instances.
    pub ssssm: usize,
}

impl Default for HarvestCaps {
    fn default() -> Self {
        HarvestCaps { getrf: 60, trsm: 120, ssssm: 200 }
    }
}

const GETRF_VARIANTS: [(GetrfVariant, &str); 3] =
    [(GetrfVariant::CV1, "C_V1"), (GetrfVariant::GV1, "G_V1"), (GetrfVariant::GV2, "G_V2")];
const TRSM_VARIANTS: [(TrsmVariant, &str); 5] = [
    (TrsmVariant::CV1, "C_V1"),
    (TrsmVariant::CV2, "C_V2"),
    (TrsmVariant::GV1, "G_V1"),
    (TrsmVariant::GV2, "G_V2"),
    (TrsmVariant::GV3, "G_V3"),
];
const SSSSM_VARIANTS: [(SsssmVariant, &str); 4] = [
    (SsssmVariant::CV1, "C_V1"),
    (SsssmVariant::CV2, "C_V2"),
    (SsssmVariant::GV1, "G_V1"),
    (SsssmVariant::GV2, "G_V2"),
];

/// A synthetic `m × n` block for the dense-tile lane's benches: each
/// entry is kept with probability `fill` (`>= 1.0` keeps all), values in
/// ±[0.25, 2), the diagonal lifted by `4·m` so a square full block
/// factors without pivot trouble. Deterministic in `seed`.
pub fn random_block(m: usize, n: usize, fill: f64, seed: u64) -> CscMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut coo = CooMatrix::new(m, n);
    for j in 0..n {
        for i in 0..m {
            if fill >= 1.0 || unit() < fill {
                let v = (0.25 + 1.75 * unit()) * if unit() < 0.5 { -1.0 } else { 1.0 };
                coo.push(i, j, if i == j { v + 4.0 * m as f64 } else { v }).expect("in range");
            }
        }
    }
    coo.to_csc()
}

fn best_of_3(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Walks the factorisation of a prepared blocked matrix, timing every
/// variant on sampled live blocks. The factorisation itself proceeds with
/// the `C_V1` kernels so later samples see realistic filled values.
pub fn harvest(bm: &mut BlockMatrix, tg: &TaskGraph, caps: HarvestCaps) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut scratch = KernelScratch::with_capacity(bm.nb());
    let mut counts = [0usize; 4];
    let stride = (bm.nblk() / 16).max(1); // sample every stride-th step

    for k in 0..bm.nblk() {
        let sampled = k % stride == 0;
        let diag_id = bm.block_id(k, k).expect("diag block");

        if sampled && counts[0] < caps.getrf {
            counts[0] += 1;
            let nnz = bm.block(diag_id).nnz() as f64;
            for (v, label) in GETRF_VARIANTS {
                let blk = bm.block(diag_id).clone();
                let secs = best_of_3(|| {
                    let mut b = blk.clone();
                    getrf::getrf(&mut b, v, &mut scratch, 1e-12);
                });
                samples.push(Sample {
                    class: "GETRF",
                    variant: label,
                    feature: nnz,
                    seconds: secs,
                    fill: 0.0,
                });
            }
            // Planned execution: the plan is built once outside the timed
            // closure — steady state amortises the build to zero.
            let blk = bm.block(diag_id).clone();
            let mut arena = Vec::new();
            let p = plan::build_getrf_plan(&blk, &mut arena);
            let secs = best_of_3(|| {
                let mut b = blk.clone();
                plan::getrf_planned(&mut b, &p, &arena, 1e-12);
            });
            samples.push(Sample {
                class: "GETRF",
                variant: "P_V1",
                feature: nnz,
                seconds: secs,
                fill: 0.0,
            });
        }
        getrf::getrf(bm.block_mut(diag_id), GetrfVariant::CV1, &mut scratch, 1e-12);

        for &j in &tg.u_panels[k] {
            let b_id = bm.block_id(k, j).expect("panel");
            if sampled && counts[1] < caps.trsm {
                counts[1] += 1;
                let nnz = bm.block(b_id).nnz() as f64;
                let diag = bm.block(diag_id).clone();
                let orig = bm.block(b_id).clone();
                for (v, label) in TRSM_VARIANTS {
                    let secs = best_of_3(|| {
                        let mut b = orig.clone();
                        trsm::gessm(&diag, &mut b, v, &mut scratch);
                    });
                    samples.push(Sample {
                        class: "GESSM",
                        variant: label,
                        feature: nnz,
                        seconds: secs,
                        fill: 0.0,
                    });
                }
                let mut arena = Vec::new();
                let p = plan::build_gessm_plan(&diag, &orig, &mut arena);
                let secs = best_of_3(|| {
                    let mut b = orig.clone();
                    plan::gessm_planned(&diag, &mut b, &p, &arena);
                });
                samples.push(Sample {
                    class: "GESSM",
                    variant: "P_V1",
                    feature: nnz,
                    seconds: secs,
                    fill: 0.0,
                });
                if is_full(&diag) && is_full(&orig) {
                    let secs = best_of_3(|| {
                        let mut b = orig.clone();
                        trsm::gessm(&diag, &mut b, TrsmVariant::DV1, &mut scratch);
                    });
                    samples.push(Sample {
                        class: "GESSM",
                        variant: "D_V1",
                        feature: nnz,
                        seconds: secs,
                        fill: 0.0,
                    });
                }
            }
            let (diag, b) = bm.block_pair_mut(diag_id, b_id);
            trsm::gessm(diag, b, TrsmVariant::CV1, &mut scratch);
        }
        for &i in &tg.l_panels[k] {
            let b_id = bm.block_id(i, k).expect("panel");
            if sampled && counts[2] < caps.trsm {
                counts[2] += 1;
                let nnz = bm.block(b_id).nnz() as f64;
                let diag = bm.block(diag_id).clone();
                let orig = bm.block(b_id).clone();
                for (v, label) in TRSM_VARIANTS {
                    let secs = best_of_3(|| {
                        let mut b = orig.clone();
                        trsm::tstrf(&diag, &mut b, v, &mut scratch);
                    });
                    samples.push(Sample {
                        class: "TSTRF",
                        variant: label,
                        feature: nnz,
                        seconds: secs,
                        fill: 0.0,
                    });
                }
                let mut arena = Vec::new();
                let p = plan::build_tstrf_plan(&diag, &orig, &mut arena);
                let secs = best_of_3(|| {
                    let mut b = orig.clone();
                    plan::tstrf_planned(&diag, &mut b, &p, &arena);
                });
                samples.push(Sample {
                    class: "TSTRF",
                    variant: "P_V1",
                    feature: nnz,
                    seconds: secs,
                    fill: 0.0,
                });
                if is_full(&diag) && is_full(&orig) {
                    let secs = best_of_3(|| {
                        let mut b = orig.clone();
                        trsm::tstrf(&diag, &mut b, TrsmVariant::DV1, &mut scratch);
                    });
                    samples.push(Sample {
                        class: "TSTRF",
                        variant: "D_V1",
                        feature: nnz,
                        seconds: secs,
                        fill: 0.0,
                    });
                }
            }
            let (diag, b) = bm.block_pair_mut(diag_id, b_id);
            trsm::tstrf(diag, b, TrsmVariant::CV1, &mut scratch);
        }

        for &i in &tg.l_panels[k] {
            let a_id = bm.block_id(i, k).expect("L operand");
            for &j in &tg.u_panels[k] {
                let Some(c_id) = bm.block_id(i, j) else { continue };
                let b_id = bm.block_id(k, j).expect("U operand");
                if sampled && counts[3] < caps.ssssm {
                    counts[3] += 1;
                    let fl = flops::ssssm_flops(bm.block(a_id), bm.block(b_id));
                    let a = bm.block(a_id).clone();
                    let b = bm.block(b_id).clone();
                    let orig = bm.block(c_id).clone();
                    // Tile-eligible instances (full target) carry their
                    // fill on every variant's sample and add the lane's.
                    let padded = 2.0 * (orig.nrows() * a.ncols() * orig.ncols()) as f64;
                    let fill = if is_full(&orig) { fl / padded } else { 0.0 };
                    let tile = (fill > 0.0).then_some((SsssmVariant::DV1, "D_V1"));
                    for (v, label) in SSSSM_VARIANTS.into_iter().chain(tile) {
                        let secs = best_of_3(|| {
                            let mut c = orig.clone();
                            ssssm::ssssm(&a, &b, &mut c, v, &mut scratch);
                        });
                        samples.push(Sample {
                            class: "SSSSM",
                            variant: label,
                            feature: fl,
                            seconds: secs,
                            fill,
                        });
                    }
                    let mut arena = Vec::new();
                    let p = plan::build_ssssm_plan(&a, &b, &orig, &mut arena);
                    let secs = best_of_3(|| {
                        let mut c = orig.clone();
                        plan::ssssm_planned(&a, &b, &mut c, &p, &arena);
                    });
                    samples.push(Sample {
                        class: "SSSSM",
                        variant: "P_V1",
                        feature: fl,
                        seconds: secs,
                        fill,
                    });
                }
                let (a, b, c) = bm.ssssm_operands(a_id, b_id, c_id);
                ssssm::ssssm(a, b, c, SsssmVariant::CV1, &mut scratch);
            }
        }
    }
    samples
}

/// Suggested crossover for one tree edge: the smallest feature value at
/// which `fast_for_big` beats `fast_for_small` in bucket-median time.
pub fn crossover(samples: &[Sample], class: &str, small: &str, big: &str) -> Option<f64> {
    // log2 buckets of the feature.
    let mut buckets: std::collections::BTreeMap<i32, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for s in samples.iter().filter(|s| s.class == class) {
        let b = s.feature.max(1.0).log2() as i32;
        let e = buckets.entry(b).or_default();
        if s.variant == small {
            e.0.push(s.seconds);
        } else if s.variant == big {
            e.1.push(s.seconds);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    for (b, (mut sv, mut bv)) in buckets {
        if sv.is_empty() || bv.is_empty() {
            continue;
        }
        if median(&mut bv) < median(&mut sv) {
            return Some(2f64.powi(b));
        }
    }
    None
}

/// Crossover for the planned gates: the smallest feature value at which
/// *any* unplanned variant beats `planned` in bucket-median time.
///
/// The classic [`crossover`] pits two named variants; the planned gate
/// needs a harder comparison, because above its cut the tree falls back
/// to whichever unplanned variant *it* would pick (e.g. the
/// dense-addressed `C_V2` once `gessm_cv1`/`ssssm_cv1` are exceeded).
/// Comparing planned execution against `C_V1` alone would keep the gate
/// open in exactly the region where the dense variants win.
pub fn crossover_vs_best(samples: &[Sample], class: &str, planned: &str) -> Option<f64> {
    // The dense-tile samples exist only for full blocks; they have their
    // own crossover (`tile_fill_crossover`) and stay out of this one.
    let pool = samples.iter().filter(|s| s.class == class && s.variant != "D_V1");
    medians_vs_best(pool, planned, |s| s.feature.max(1.0).log2() as i32)
        .into_iter()
        .find(|&(_, planned_t, best_other)| best_other < planned_t)
        .map(|(b, ..)| 2f64.powi(b))
}

/// Buckets `pool` by `bucket` and returns, per bucket in ascending order,
/// `(bucket, median seconds of variant, best median among the other
/// variants)`; buckets missing either side are dropped.
fn medians_vs_best<'a>(
    pool: impl Iterator<Item = &'a Sample>,
    variant: &str,
    bucket: impl Fn(&Sample) -> i32,
) -> Vec<(i32, f64, f64)> {
    type Bucket<'a> = (Vec<f64>, std::collections::HashMap<&'a str, Vec<f64>>);
    let mut buckets: std::collections::BTreeMap<i32, Bucket<'_>> =
        std::collections::BTreeMap::new();
    for s in pool {
        let e = buckets.entry(bucket(s)).or_default();
        if s.variant == variant {
            e.0.push(s.seconds);
        } else {
            e.1.entry(s.variant).or_default().push(s.seconds);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    buckets
        .into_iter()
        .filter(|(_, (own, others))| !own.is_empty() && !others.is_empty())
        .map(|(b, (mut own, others))| {
            let best_other =
                others.into_values().map(|mut v| median(&mut v)).fold(f64::INFINITY, f64::min);
            (b, median(&mut own), best_other)
        })
        .collect()
}

/// Model GFLOP/s of the sparse lane (`C_V1`, the calibrated tree's pick)
/// and of the dense-tile lane (`D_V1`) on synthetic `nb³` updates with a
/// full target and both operands kept at `density`: best of five passes
/// over eight distinct operand triples (so no triple stays cache-resident
/// between its two uses), model FLOPs both times — the padded count never
/// enters.
pub fn lane_gflops(nb: usize, density: f64, seed: u64) -> (f64, f64) {
    let sets: Vec<_> = (0..8u64)
        .map(|t| {
            let s = seed.wrapping_mul(64).wrapping_add(t * 3);
            (
                random_block(nb, nb, density, s),
                random_block(nb, nb, density, s + 1),
                random_block(nb, nb, 1.0, s + 2),
            )
        })
        .collect();
    let model: f64 = sets.iter().map(|(a, b, _)| flops::ssssm_flops(a, b)).sum();
    let mut scratch = KernelScratch::with_capacity(nb);
    let mut rate = |v: SsssmVariant| {
        let mut targets: Vec<CscMatrix> = sets.iter().map(|(.., c)| c.clone()).collect();
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            for ((a, b, _), c) in sets.iter().zip(&mut targets) {
                ssssm::ssssm(a, b, c, v, &mut scratch);
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        model / best / 1e9
    };
    (rate(SsssmVariant::CV1), rate(SsssmVariant::DV1))
}

/// The fill fraction from which the dense-tile lane beats every sparse
/// variant on the harvested tile-eligible SSSSM instances: the lower
/// edge of the first fill decile whose `D_V1` median is under the best
/// sparse median, `None` if the lane never wins. Informational — the
/// shipped cut is `pangulu_kernels::select::TILE_MIN_FILL`.
pub fn tile_fill_crossover(samples: &[Sample]) -> Option<f64> {
    let pool = samples.iter().filter(|s| s.class == "SSSSM" && s.fill > 0.0 && s.variant != "P_V1");
    medians_vs_best(pool, "D_V1", |s| ((s.fill * 10.0) as i32).min(9))
        .into_iter()
        .find(|&(_, tile_t, best_sparse)| tile_t < best_sparse)
        .map(|(decile, ..)| f64::from(decile) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A filled-in matrix yields tile samples in all three classes, and
    /// every tile-eligible SSSSM instance carries its fill.
    #[test]
    fn harvest_times_the_tile_lane_on_full_blocks() {
        let a = pangulu_sparse::gen::kkt(400, 180, 7);
        let prep = crate::prepare(&a, 1);
        let filled = pangulu_symbolic::symbolic_fill(&prep.reordered)
            .and_then(|f| f.filled_matrix(&prep.reordered))
            .unwrap();
        let mut bm = BlockMatrix::from_filled(&filled, 36).unwrap();
        let tg = TaskGraph::build(&bm);
        let caps = HarvestCaps { getrf: 100, trsm: 1000, ssssm: 2000 };
        let samples = harvest(&mut bm, &tg, caps);
        for class in ["GESSM", "TSTRF", "SSSSM"] {
            assert!(
                samples.iter().any(|s| s.class == class && s.variant == "D_V1"),
                "no tile sample for {class}"
            );
        }
        assert!(samples
            .iter()
            .filter(|s| s.variant == "D_V1" && s.class == "SSSSM")
            .all(|s| { s.fill > 0.0 && s.fill <= 1.0 }));
        // Informational output, but it must be a decile edge when present.
        if let Some(x) = tile_fill_crossover(&samples) {
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn harvest_produces_all_classes() {
        let a = pangulu_sparse::gen::circuit(250, 4);
        let prep = crate::prepare(&a, 1);
        let mut bm = prep.bm.clone();
        let samples = harvest(&mut bm, &prep.tg, HarvestCaps { getrf: 4, trsm: 6, ssssm: 8 });
        for class in ["GETRF", "GESSM", "TSTRF", "SSSSM"] {
            assert!(samples.iter().any(|s| s.class == class), "no samples for {class}");
        }
        assert!(samples.iter().all(|s| s.seconds >= 0.0 && s.feature >= 0.0));
    }

    #[test]
    fn crossover_finds_synthetic_break_even() {
        // Synthetic: "small" wins below 2^10, "big" above.
        let mut samples = Vec::new();
        for e in 5..15 {
            let f = 2f64.powi(e);
            samples.push(Sample {
                class: "GETRF",
                variant: "C_V1",
                feature: f,
                seconds: if e < 10 { 1.0 } else { 3.0 },
                fill: 0.0,
            });
            samples.push(Sample {
                class: "GETRF",
                variant: "G_V1",
                feature: f,
                seconds: if e < 10 { 2.0 } else { 1.0 },
                fill: 0.0,
            });
        }
        let x = crossover(&samples, "GETRF", "C_V1", "G_V1").unwrap();
        assert_eq!(x, 1024.0);
    }
}

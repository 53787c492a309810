//! Decision-tree kernel selection (paper §4.3, Figure 8).
//!
//! PanguLU picks a kernel variant per block from cheap structural
//! features: `nnz` of the operand for the panel kernels, the FLOP count
//! for SSSSM, gated by the global matrix size (`nnz(A) < 5e6` in the
//! paper). The trees here keep the paper's exact structure; the cut
//! points are [`Thresholds`] fields so the calibration harness
//! (`fig08_calibrate`) can re-fit them for this machine — the shipped
//! defaults come from such a calibration run.
//!
//! One leaf is decided from structure rather than a threshold: the
//! dense-tile lane `D_V1` ([`crate::tile`]) for blocks that fill-in has
//! made completely dense — the `*_on` methods below, consulted by
//! [`crate::KernelPlans`]' routing and nowhere else: after the planned
//! gate for the panel solves, and for every GETRF and SSSSM that replays
//! no plan, which includes every full diagonal block and every update
//! onto a full target (neither ever has a plan; an update under the fill
//! cut gets the tree's pick, and `C_V1` updates its full columns in
//! place).

use pangulu_sparse::{CscMatrix, Scalar};

use crate::tile::is_full;
use crate::{GetrfVariant, SsssmVariant, TrsmVariant};

/// The dense-tile lane's SSSSM cut: an update on a full target takes the
/// lane when its model FLOPs are at least this fraction of the padded
/// dense count `2·m·k·n` (so both operands are at least this full and
/// expanding them pays).
///
/// A constant, not a [`Thresholds`] field: the lane is bitwise equal to
/// the sparse variants, so the cut can never change an answer, and the
/// measured sweep is flat from 0.5 down to 0.1 — re-swept on the
/// postordered block structure, where kkt has 18 updates between 0.35
/// and 0.5 and none below (docs/PERFORMANCE.md, "Dense-tile lane" and
/// "Reordering cost"); `fig08_calibrate` prints the crossover a host
/// measures next to it.
pub const TILE_MIN_FILL: f64 = 0.5;

/// Tunable cut points of the four decision trees.
///
/// Field names follow the paper's figure: `1E3.8` becomes `10f64.powf(3.8)`
/// scaled down to container-size blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Global gate: below this total matrix nnz the "small matrix" side of
    /// the GESSM/TSTRF trees is used (paper: 5e6).
    pub big_matrix_nnz: f64,
    /// GETRF: below this block nnz use `C_V1` (paper: 1E3.8).
    pub getrf_cpu: f64,
    /// GETRF: below this block nnz use `G_V1`, else `G_V2` (paper: 1E4).
    pub getrf_gv1: f64,
    /// GESSM small-matrix side: below → `C_V1` (paper: 1E3.9).
    pub gessm_cv1: f64,
    /// GESSM small-matrix side: below → `C_V2`, else `G_V1` (paper: 1E4.1).
    pub gessm_cv2: f64,
    /// GESSM big-matrix side: below → `G_V2`, else `G_V3` (paper: 1E4.3).
    pub gessm_gv2: f64,
    /// TSTRF small-matrix side: below → `C_V1` (paper: 1E3.8).
    pub tstrf_cv1: f64,
    /// TSTRF small-matrix side: below → `C_V2`, else `G_V1` (paper: 1E4).
    pub tstrf_cv2: f64,
    /// TSTRF big-matrix side: below → `G_V2`, else `G_V3` (paper: 1E4.3).
    pub tstrf_gv2: f64,
    /// SSSSM: below this FLOP count → CPU side (paper: 1E7).
    pub ssssm_cpu: f64,
    /// SSSSM CPU side: below → `C_V1`, else `C_V2` (paper: 1E4.8).
    pub ssssm_cv1: f64,
    /// SSSSM GPU side: below → `G_V1`, else `G_V2` (paper: 1E9.6).
    pub ssssm_gv1: f64,
    /// GETRF planned gate: below this block nnz the precomputed index
    /// plan (`P_V1`) replaces the tree's pick. Not in the paper — plans
    /// are this repo's analysis-reuse layer; `fig08_calibrate` fits the
    /// cut from planned-vs-unplanned crossovers.
    pub getrf_planned: f64,
    /// GESSM planned gate (block nnz).
    pub gessm_planned: f64,
    /// TSTRF planned gate (block nnz).
    pub tstrf_planned: f64,
    /// SSSSM planned gate (update FLOPs).
    pub ssssm_planned: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        // Calibrated by `fig08_calibrate` on the reference single-core
        // container. Two honest findings of that run: (1) no "G" variant
        // wins a bucket — each runs on the task's thread, either a CPU
        // variant's loop or a bin-search one that loses to direct and
        // merge addressing — so their cut points sit at infinity; (2) the
        // addressing-method crossovers (the paper's real decision axis)
        // land at: GESSM merge → dense around 4e3 nnz, TSTRF and SSSSM
        // prefer their V2 addressing from small sizes up.
        Thresholds {
            // Every matrix takes the small-matrix side, whatever its
            // size: on the big-matrix side a `gessm_gv2` / `tstrf_gv2`
            // cut at infinity would send every panel solve to `G_V2`,
            // which copies the diagonal block to CSR on each call (5.8×
            // and 7.6× `C_V2`'s time on the GESSM / TSTRF tasks of
            // `data/fig07_kernels.csv`), and the calibration never fits
            // those two cuts.
            big_matrix_nnz: f64::INFINITY,
            getrf_cpu: f64::INFINITY,
            getrf_gv1: f64::INFINITY,
            gessm_cv1: 1.3e2,
            gessm_cv2: f64::INFINITY,
            gessm_gv2: f64::INFINITY,
            tstrf_cv1: 3.2e1,
            tstrf_cv2: f64::INFINITY,
            tstrf_gv2: f64::INFINITY,
            ssssm_cpu: f64::INFINITY,
            // Total-time wise, the direct kernel wins from small sizes up
            // on this host (the scatter overhead is repaid by the
            // contiguous-run fast path), so C_V1 handles everything.
            ssssm_cv1: f64::INFINITY,
            ssssm_gv1: f64::INFINITY,
            // Planned gates: plans replay the *scalar* index walk, so
            // they win where per-call index discovery dominates the
            // arithmetic and lose to the dense-addressed variants once
            // blocks fill in (a dense scatter is itself search-free and
            // amortises over batched updates). The TSTRF/SSSSM cuts are
            // the `fig08_calibrate` planned-vs-best-unplanned
            // crossovers; GETRF planning never lost a bucket. The GESSM
            // cut mirrors TSTRF's — the single-call harvest keeps its
            // gate open, but end-to-end A/B on the smoke corpus shows
            // the merge replay losing to `C_V2` above ~1e3 nnz once
            // operand blocks stop being cache-resident.
            getrf_planned: f64::INFINITY,
            gessm_planned: 1.0e3,
            tstrf_planned: 1.0e3,
            ssssm_planned: 3.3e4,
        }
    }
}

impl Thresholds {
    /// The paper's published cut points (Figure 8), for GPU-class hosts
    /// and for tests exercising the full tree shape.
    pub fn paper() -> Self {
        Thresholds {
            big_matrix_nnz: 5e6,
            getrf_cpu: 10f64.powf(3.8),
            getrf_gv1: 1e4,
            gessm_cv1: 10f64.powf(3.9),
            gessm_cv2: 10f64.powf(4.1),
            gessm_gv2: 10f64.powf(4.3),
            tstrf_cv1: 10f64.powf(3.8),
            tstrf_cv2: 1e4,
            tstrf_gv2: 10f64.powf(4.3),
            ssssm_cpu: 1e7,
            ssssm_cv1: 10f64.powf(4.8),
            ssssm_gv1: 10f64.powf(9.6),
            getrf_planned: f64::INFINITY,
            gessm_planned: f64::INFINITY,
            tstrf_planned: f64::INFINITY,
            ssssm_planned: f64::INFINITY,
        }
    }

    /// The calibrated defaults with all four planned gates closed (cuts
    /// at 0): every task runs the variant its tree picks and no kernel
    /// plan is ever built — the unplanned arm of A/B benches and of the
    /// planned-vs-unplanned bitwise tests.
    pub fn unplanned() -> Self {
        Thresholds {
            getrf_planned: 0.0,
            gessm_planned: 0.0,
            tstrf_planned: 0.0,
            ssssm_planned: 0.0,
            ..Thresholds::default()
        }
    }
}

/// Selects kernel variants per block; one instance per factorisation,
/// constructed with the global matrix nnz that gates the trees.
#[derive(Debug, Clone, Copy)]
pub struct KernelSelector {
    thresholds: Thresholds,
    global_nnz: f64,
    /// When `false`, selection is bypassed and the baseline (first CPU)
    /// variant is always returned — the "Baseline" bars of Figure 14.
    adaptive: bool,
}

impl KernelSelector {
    /// Creates a selector for a matrix with `global_nnz` stored entries.
    pub fn new(global_nnz: usize, thresholds: Thresholds) -> Self {
        KernelSelector { thresholds, global_nnz: global_nnz as f64, adaptive: true }
    }

    /// A selector that always answers with the fixed pre-selection
    /// kernels — the bin-search family PanguLU inherited from the SFLU
    /// line of work — for the Figure 14 ablation's "Baseline" bars.
    pub fn baseline(global_nnz: usize) -> Self {
        KernelSelector {
            thresholds: Thresholds::default(),
            global_nnz: global_nnz as f64,
            adaptive: false,
        }
    }

    /// Figure 8(a): GETRF from the diagonal block nnz.
    pub fn getrf(&self, nnz_block: usize) -> GetrfVariant {
        if !self.adaptive {
            return GetrfVariant::GV1;
        }
        let t = &self.thresholds;
        let nnz = nnz_block as f64;
        if nnz < t.getrf_cpu {
            GetrfVariant::CV1
        } else if nnz < t.getrf_gv1 {
            GetrfVariant::GV1
        } else {
            GetrfVariant::GV2
        }
    }

    /// Figure 8(b): GESSM from the operand block nnz.
    pub fn gessm(&self, nnz_b: usize) -> TrsmVariant {
        if !self.adaptive {
            return TrsmVariant::GV1;
        }
        let t = &self.thresholds;
        let nnz = nnz_b as f64;
        if self.global_nnz < t.big_matrix_nnz {
            if nnz < t.gessm_cv1 {
                TrsmVariant::CV1
            } else if nnz < t.gessm_cv2 {
                TrsmVariant::CV2
            } else {
                TrsmVariant::GV1
            }
        } else if nnz < t.gessm_gv2 {
            TrsmVariant::GV2
        } else {
            TrsmVariant::GV3
        }
    }

    /// Figure 8(c): TSTRF from the operand block nnz.
    pub fn tstrf(&self, nnz_b: usize) -> TrsmVariant {
        if !self.adaptive {
            return TrsmVariant::GV1;
        }
        let t = &self.thresholds;
        let nnz = nnz_b as f64;
        if self.global_nnz < t.big_matrix_nnz {
            if nnz < t.tstrf_cv1 {
                TrsmVariant::CV1
            } else if nnz < t.tstrf_cv2 {
                TrsmVariant::CV2
            } else {
                TrsmVariant::GV1
            }
        } else if nnz < t.tstrf_gv2 {
            TrsmVariant::GV2
        } else {
            TrsmVariant::GV3
        }
    }

    /// Whether the precomputed index plan should replace the GETRF tree
    /// pick for a block with `nnz_block` entries. Always `false` for the
    /// baseline (pre-selection) selector — plans are part of the
    /// adaptive layer.
    pub fn planned_getrf(&self, nnz_block: usize) -> bool {
        self.adaptive && (nnz_block as f64) < self.thresholds.getrf_planned
    }

    /// Planned gate for GESSM (operand block nnz).
    pub fn planned_gessm(&self, nnz_b: usize) -> bool {
        self.adaptive && (nnz_b as f64) < self.thresholds.gessm_planned
    }

    /// Planned gate for TSTRF (operand block nnz).
    pub fn planned_tstrf(&self, nnz_b: usize) -> bool {
        self.adaptive && (nnz_b as f64) < self.thresholds.tstrf_planned
    }

    /// Planned gate for SSSSM (update FLOPs).
    pub fn planned_ssssm(&self, flops: f64) -> bool {
        self.adaptive && flops < self.thresholds.ssssm_planned
    }

    /// The GETRF leaf for diagonal block `a`: the dense-tile lane when it
    /// is full, else the Figure 8(a) tree. Structure only — no value is
    /// read — and never for the baseline selector's fixed kernels.
    pub fn getrf_on<S: Scalar>(&self, a: &CscMatrix<S>) -> GetrfVariant {
        if self.adaptive && is_full(a) {
            GetrfVariant::DV1
        } else {
            self.getrf(a.nnz())
        }
    }

    /// Whether a panel solve on these blocks takes the dense-tile lane:
    /// factor block and panel block both full. Structure only — no value
    /// is read — and never for the baseline selector's fixed kernels.
    fn tile_panel<S: Scalar>(&self, diag_lu: &CscMatrix<S>, b: &CscMatrix<S>) -> bool {
        self.adaptive && is_full(diag_lu) && is_full(b)
    }

    /// The GESSM leaf for `L X = B` on these blocks: the dense-tile lane
    /// when both are full, else the Figure 8(b) tree.
    pub fn gessm_on<S: Scalar>(&self, diag_lu: &CscMatrix<S>, b: &CscMatrix<S>) -> TrsmVariant {
        if self.tile_panel(diag_lu, b) {
            TrsmVariant::DV1
        } else {
            self.gessm(b.nnz())
        }
    }

    /// The TSTRF leaf for `X U = B` on these blocks: the dense-tile lane
    /// when both are full, else the Figure 8(c) tree.
    pub fn tstrf_on<S: Scalar>(&self, diag_lu: &CscMatrix<S>, b: &CscMatrix<S>) -> TrsmVariant {
        if self.tile_panel(diag_lu, b) {
            TrsmVariant::DV1
        } else {
            self.tstrf(b.nnz())
        }
    }

    /// The SSSSM leaf for `C ← C − A·B` of `flops` model FLOPs: the
    /// dense-tile lane when the target is full and the update is at
    /// least [`TILE_MIN_FILL`] of the padded dense product, else the
    /// Figure 8(d) tree. Structure only, like the panel leaves.
    pub fn ssssm_on<S: Scalar>(
        &self,
        flops: f64,
        a: &CscMatrix<S>,
        c: &CscMatrix<S>,
    ) -> SsssmVariant {
        let padded = 2.0 * (c.nrows() * a.ncols() * c.ncols()) as f64;
        if self.adaptive && is_full(c) && flops >= TILE_MIN_FILL * padded {
            SsssmVariant::DV1
        } else {
            self.ssssm(flops)
        }
    }

    /// Figure 8(d): SSSSM from the update's FLOP count.
    pub fn ssssm(&self, flops: f64) -> SsssmVariant {
        if !self.adaptive {
            return SsssmVariant::GV1;
        }
        let t = &self.thresholds;
        if flops < t.ssssm_cpu {
            if flops < t.ssssm_cv1 {
                SsssmVariant::CV1
            } else {
                SsssmVariant::CV2
            }
        } else if flops < t.ssssm_gv1 {
            SsssmVariant::GV1
        } else {
            SsssmVariant::GV2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::dense_block;

    #[test]
    fn getrf_tree_is_monotone() {
        let s = KernelSelector::new(1_000, Thresholds::paper());
        assert_eq!(s.getrf(10), GetrfVariant::CV1);
        assert_eq!(s.getrf(8_000), GetrfVariant::GV1);
        assert_eq!(s.getrf(50_000), GetrfVariant::GV2);
    }

    #[test]
    fn gessm_tree_gates_on_matrix_size() {
        let small = KernelSelector::new(1_000, Thresholds::paper());
        let big = KernelSelector::new(10_000_000, Thresholds::paper());
        assert_eq!(small.gessm(100), TrsmVariant::CV1);
        assert_eq!(small.gessm(10_000), TrsmVariant::CV2);
        assert_eq!(small.gessm(50_000), TrsmVariant::GV1);
        assert_eq!(big.gessm(100), TrsmVariant::GV2);
        assert_eq!(big.gessm(50_000), TrsmVariant::GV3);
    }

    #[test]
    fn tstrf_tree_mirrors_gessm_shape() {
        let s = KernelSelector::new(1_000, Thresholds::paper());
        assert_eq!(s.tstrf(100), TrsmVariant::CV1);
        assert_eq!(s.tstrf(8_000), TrsmVariant::CV2);
        assert_eq!(s.tstrf(30_000), TrsmVariant::GV1);
    }

    #[test]
    fn ssssm_tree_uses_flops() {
        let s = KernelSelector::new(1_000, Thresholds::paper());
        assert_eq!(s.ssssm(10.0), SsssmVariant::CV1);
        assert_eq!(s.ssssm(1e5), SsssmVariant::CV2);
        assert_eq!(s.ssssm(1e8), SsssmVariant::GV1);
        assert_eq!(s.ssssm(1e10), SsssmVariant::GV2);
    }

    #[test]
    fn calibrated_defaults_stay_on_cpu_variants() {
        // The shipped calibration: "G" kernels are never selected; the
        // addressing method still adapts.
        let s = KernelSelector::new(1_000, Thresholds::default());
        assert_eq!(s.getrf(1_000_000), GetrfVariant::CV1);
        assert_eq!(s.gessm(100), TrsmVariant::CV1);
        assert_eq!(s.gessm(100_000), TrsmVariant::CV2);
        assert_eq!(s.tstrf(100_000), TrsmVariant::CV2);
        assert_eq!(s.ssssm(1e9), SsssmVariant::CV1);
    }

    #[test]
    fn calibrated_defaults_ignore_the_matrix_size() {
        let small = KernelSelector::new(1_000, Thresholds::default());
        let big = KernelSelector::new(10_000_000, Thresholds::default());
        for e in 0..=40 {
            let x = 10f64.powf(f64::from(e) / 4.0);
            let nnz = x as usize;
            assert_eq!(big.getrf(nnz), small.getrf(nnz), "getrf, nnz {nnz}");
            assert_eq!(big.gessm(nnz), small.gessm(nnz), "gessm, nnz {nnz}");
            assert_eq!(big.tstrf(nnz), small.tstrf(nnz), "tstrf, nnz {nnz}");
            assert_eq!(big.ssssm(x), small.ssssm(x), "ssssm, flops {x}");
            assert_eq!(big.planned_gessm(nnz), small.planned_gessm(nnz));
            assert_eq!(big.planned_tstrf(nnz), small.planned_tstrf(nnz));
            assert_eq!(big.planned_ssssm(x), small.planned_ssssm(x));
        }
    }

    #[test]
    fn baseline_always_answers_binsearch_family() {
        let s = KernelSelector::baseline(10_000_000);
        assert_eq!(s.getrf(1_000_000), GetrfVariant::GV1);
        assert_eq!(s.gessm(1_000_000), TrsmVariant::GV1);
        assert_eq!(s.tstrf(1_000_000), TrsmVariant::GV1);
        assert_eq!(s.ssssm(1e12), SsssmVariant::GV1);
    }

    #[test]
    fn tile_leaf_needs_full_blocks_and_the_fill_cut() {
        let s = KernelSelector::new(1_000, Thresholds::default());
        let (full, wide) = (dense_block(8, 8, 0), dense_block(8, 5, 1));
        let holed = full.filter_entries(|i, j| (i, j) != (3, 4));

        assert_eq!(s.gessm_on(&full, &wide), TrsmVariant::DV1);
        assert_eq!(s.gessm_on(&holed, &wide), s.gessm(wide.nnz()));
        assert_eq!(s.gessm_on(&full, &holed), s.gessm(holed.nnz()));
        assert_eq!(s.tstrf_on(&full, &full), TrsmVariant::DV1);
        assert_eq!(s.tstrf_on(&full, &holed), s.tstrf(holed.nnz()));
        assert_eq!(s.getrf_on(&full), GetrfVariant::DV1);
        assert_eq!(s.getrf_on(&holed), s.getrf(holed.nnz()));

        // 8 x 8 x 5 update: padded count 2*8*8*5 = 640 FLOPs.
        let at_cut = TILE_MIN_FILL * 640.0;
        assert_eq!(s.ssssm_on(640.0, &full, &wide), SsssmVariant::DV1);
        assert_eq!(s.ssssm_on(at_cut, &full, &wide), SsssmVariant::DV1);
        assert_eq!(s.ssssm_on(at_cut - 2.0, &full, &wide), s.ssssm(at_cut - 2.0));
        assert_eq!(s.ssssm_on(640.0, &full, &holed), s.ssssm(640.0), "target must be full");

        // The fixed pre-selection kernels of the Figure 14 baseline stay.
        let base = KernelSelector::baseline(1_000);
        assert_eq!(base.gessm_on(&full, &wide), TrsmVariant::GV1);
        assert_eq!(base.tstrf_on(&full, &full), TrsmVariant::GV1);
        assert_eq!(base.getrf_on(&full), GetrfVariant::GV1);
        assert_eq!(base.ssssm_on(640.0, &full, &wide), SsssmVariant::GV1);
    }

    #[test]
    fn planned_gates_follow_calibrated_cuts_and_baseline_is_closed() {
        // GETRF's gate is open at any size; the panel/SSSSM gates close
        // once the dense-addressed fallbacks start winning.
        let adaptive = KernelSelector::new(1_000, Thresholds::default());
        assert!(adaptive.planned_getrf(1_000_000));
        assert!(adaptive.planned_gessm(500));
        assert!(!adaptive.planned_gessm(1_000_000));
        assert!(adaptive.planned_tstrf(500));
        assert!(!adaptive.planned_tstrf(1_000_000));
        assert!(adaptive.planned_ssssm(1e4));
        assert!(!adaptive.planned_ssssm(1e12));

        for closed in
            [KernelSelector::baseline(1_000), KernelSelector::new(1_000, Thresholds::unplanned())]
        {
            assert!(!closed.planned_getrf(0));
            assert!(!closed.planned_gessm(0));
            assert!(!closed.planned_tstrf(0));
            assert!(!closed.planned_ssssm(0.0));
        }

        let closed = Thresholds { ssssm_planned: 100.0, ..Thresholds::default() };
        let s = KernelSelector::new(1_000, closed);
        assert!(s.planned_ssssm(99.0));
        assert!(!s.planned_ssssm(100.0));
    }
}

//! Kernel selection (paper §4.3, Figure 8).
//!
//! PanguLU picks a kernel variant per block from cheap structural
//! features: `nnz` of the operand for the panel kernels, the FLOP count
//! for SSSSM. The paper's trees cut at 1E3.8–1E9.6, fitted to GPU
//! kernels. Here every variant runs on its task's thread, and the
//! calibration harness (`fig08_calibrate`) put all but two of those cuts
//! at infinity on this host: the trees the library ships are the
//! calibrated leaves below, written as constants, and reach `C_V1` and
//! `C_V2` only. What stays tunable is the four planned gates of
//! [`Thresholds`].
//!
//! One leaf is decided from structure rather than a threshold: the
//! dense-tile lane `D_V1` ([`crate::tile`]) for blocks that fill-in has
//! made dense enough — the `*_on` methods below, consulted by
//! [`crate::KernelPlans`]' routing and nowhere else: after the planned
//! gate for the panel solves, and for every GETRF and SSSSM that replays
//! no plan, which includes every full diagonal block and every update
//! onto a full target (neither ever has a plan). GETRF takes the lane on
//! a full block. SSSSM takes it onto a full target when its model FLOPs
//! reach [`TILE_MIN_FILL`] of the padded dense count (below, the tree's
//! pick, and `C_V1` updates the full columns in place). A panel solve
//! takes it when its model FLOPs reach [`PANEL_MIN_FILL`] of its padded
//! count, with a factor block that is not full only under a panel at
//! least half as wide as that block's order; blocks that are not full
//! are expanded into scratch tiles. The model FLOPs are the task graph's
//! own, so routing costs one comparison.

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

/// The dense-tile lane's panel cut: a GESSM or TSTRF takes the lane when
/// its model FLOPs are at least this fraction of the padded dense count,
/// its factor block and panel block expanded into scratch tiles when not
/// full (see [`KernelSelector::gessm_on`]).
///
/// Lower than [`TILE_MIN_FILL`] because the panel solves' sparse leaf
/// (`C_V2`) is slower than SSSSM's in-place `C_V1`: on kkt's filled
/// panel blocks it ran 1.1–2.3 GFLOP/s in situ, the lane 13–30, so the
/// lane wins from ≈ 0.1 up, and kkt's eighteen filled panel blocks sit at
/// 0.23–0.39 (docs/PERFORMANCE.md "Shifted tail tiles and filled
/// panels"). A narrow panel under a factor
/// block that is not full stays off the lane whatever its fill: the
/// per-call expansion of the factor is not repaid (circuit(6000)'s two
/// 11-wide panels at 0.38 read slower on the lane).
pub const PANEL_MIN_FILL: f64 = 0.2;

// The calibrated leaves, from `fig08_calibrate` on the reference
// single-core container. No "G" variant wins a bucket there — each runs
// on the task's thread, either a CPU variant's loop or a bin-search one
// that loses to direct and merge addressing — so GETRF always takes
// `C_V1`, and the paper's matrix-size gate (`nnz(A) < 5e6`) is not
// carried: its big-matrix side would send every panel solve to `G_V2`,
// which copies the diagonal block to CSR on each call (5.8× and 7.6×
// `C_V2`'s time on the GESSM / TSTRF tasks of `data/fig07_kernels.csv`).
// What adapts is the addressing method, the paper's real decision axis.

/// GESSM: below this operand nnz `C_V1` (merge addressing), else the
/// dense-addressed `C_V2`.
const GESSM_MERGE_BELOW: usize = 130;

/// TSTRF: below this operand nnz `C_V1`, else `C_V2` — TSTRF prefers
/// its dense addressing from small sizes up.
const TSTRF_MERGE_BELOW: usize = 32;

// SSSSM always takes `C_V1`: total-time wise the direct kernel wins from
// small sizes up on this host (the scatter overhead is repaid by the
// contiguous-run fast path).

/// The planned gates: below its cut a block replays its precomputed
/// index plan (`P_V1`) instead of the variant selection picks. Not in
/// the paper — plans are this repo's analysis-reuse layer;
/// `fig08_calibrate` fits the cuts from planned-vs-unplanned crossovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// GETRF planned gate (diagonal block nnz).
    pub getrf_planned: f64,
    /// GESSM planned gate (operand block nnz).
    pub gessm_planned: f64,
    /// TSTRF planned gate (operand block nnz).
    pub tstrf_planned: f64,
    /// SSSSM planned gate (update FLOPs).
    pub ssssm_planned: f64,
}

impl Default for Thresholds {
    /// Plans replay the *scalar* index walk, so they win where per-call
    /// index discovery dominates the arithmetic and lose to the
    /// dense-addressed variants once blocks fill in (a dense scatter is
    /// itself search-free and amortises over batched updates). The
    /// TSTRF/SSSSM cuts are the `fig08_calibrate` planned-vs-best-unplanned
    /// crossovers; GETRF planning never lost a bucket. The GESSM cut
    /// mirrors TSTRF's — the single-call harvest keeps its gate open, but
    /// end-to-end A/B on the smoke corpus shows the merge replay losing to
    /// `C_V2` above ~1e3 nnz once operand blocks stop being cache-resident.
    fn default() -> Self {
        Thresholds {
            getrf_planned: f64::INFINITY,
            gessm_planned: 1.0e3,
            tstrf_planned: 1.0e3,
            ssssm_planned: 3.3e4,
        }
    }
}

impl Thresholds {
    /// All four planned gates closed (cuts at 0): every task runs the
    /// variant selection picks and no kernel plan is ever built — the
    /// unplanned arm of A/B benches and of the planned-vs-unplanned
    /// bitwise tests.
    pub fn unplanned() -> Self {
        Thresholds {
            getrf_planned: 0.0,
            gessm_planned: 0.0,
            tstrf_planned: 0.0,
            ssssm_planned: 0.0,
        }
    }
}

/// Selects kernel variants per block; one instance per factorisation.
#[derive(Debug, Clone, Copy)]
pub struct KernelSelector {
    thresholds: Thresholds,
    /// When `false`, selection is bypassed and the baseline (first CPU)
    /// variant is always returned — the "Baseline" bars of Figure 14.
    adaptive: bool,
}

impl KernelSelector {
    /// Creates a selector with these planned gates. The matrix's stored
    /// entry count is not read: the calibrated leaves do not depend on
    /// the matrix size.
    pub fn new(_global_nnz: usize, thresholds: Thresholds) -> Self {
        KernelSelector { thresholds, adaptive: true }
    }

    /// A selector that always answers with the fixed pre-selection
    /// kernels — the bin-search family PanguLU inherited from the SFLU
    /// line of work — for the Figure 14 ablation's "Baseline" bars.
    pub fn baseline() -> Self {
        KernelSelector { thresholds: Thresholds::default(), adaptive: false }
    }

    /// GETRF from the diagonal block nnz: always `C_V1`.
    pub fn getrf(&self, _nnz_block: usize) -> GetrfVariant {
        if self.adaptive {
            GetrfVariant::CV1
        } else {
            GetrfVariant::GV1
        }
    }

    /// GESSM from the operand block nnz.
    pub fn gessm(&self, nnz_b: usize) -> TrsmVariant {
        self.trsm(nnz_b, GESSM_MERGE_BELOW)
    }

    /// TSTRF from the operand block nnz.
    pub fn tstrf(&self, nnz_b: usize) -> TrsmVariant {
        self.trsm(nnz_b, TSTRF_MERGE_BELOW)
    }

    fn trsm(&self, nnz_b: usize, merge_below: usize) -> TrsmVariant {
        if !self.adaptive {
            TrsmVariant::GV1
        } else if nnz_b < merge_below {
            TrsmVariant::CV1
        } else {
            TrsmVariant::CV2
        }
    }

    /// SSSSM from the update's FLOP count: always `C_V1`.
    pub fn ssssm(&self, _flops: f64) -> SsssmVariant {
        if self.adaptive {
            SsssmVariant::CV1
        } else {
            SsssmVariant::GV1
        }
    }

    /// Whether the precomputed index plan should replace the GETRF pick
    /// for a block with `nnz_block` entries. Always `false` for the
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
    /// is full, else [`Self::getrf`]. Structure only — no value is read —
    /// and never for the baseline selector's fixed kernels.
    pub fn getrf_on<S: Scalar>(&self, a: &CscMatrix<S>) -> GetrfVariant {
        if self.adaptive && is_full(a) {
            GetrfVariant::DV1
        } else {
            self.getrf(a.nnz())
        }
    }

    /// Whether a panel solve of `flops` model FLOPs takes the dense-tile
    /// lane: they reach [`PANEL_MIN_FILL`] of the `padded` count its
    /// blocks would take dense (one with no padded work never does), and
    /// a factor block that is not full, which the lane expands on every
    /// call, is shared by a panel that spans at least half its order
    /// (`across` columns of `B` for GESSM, rows for TSTRF). Structure
    /// only — no value is read — and never for the baseline selector's
    /// fixed kernels.
    fn tile_panel<S: Scalar>(
        &self,
        flops: f64,
        padded: usize,
        diag_lu: &CscMatrix<S>,
        across: usize,
    ) -> bool {
        self.adaptive
            && padded > 0
            && flops >= PANEL_MIN_FILL * padded as f64
            && (is_full(diag_lu) || 2 * across >= diag_lu.nrows())
    }

    /// The GESSM leaf for `L X = B` of `flops` model FLOPs: the dense-tile
    /// lane by [`Self::tile_panel`]'s rule against the padded count
    /// `n·m·(m−1)` (two per pair of a unit-lower entry and a column of
    /// `B`; both blocks full reach it exactly), else [`Self::gessm`].
    pub fn gessm_on<S: Scalar>(
        &self,
        flops: f64,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) -> TrsmVariant {
        let (m, n) = (b.nrows(), b.ncols());
        if self.tile_panel(flops, n * m * m.saturating_sub(1), diag_lu, n) {
            TrsmVariant::DV1
        } else {
            self.gessm(b.nnz())
        }
    }

    /// The TSTRF leaf for `X U = B` of `flops` model FLOPs: the dense-tile
    /// lane by [`Self::tile_panel`]'s rule against the padded count `m·n²`
    /// (the divisions and two per pair of a strict upper entry and a row
    /// of `B`), else [`Self::tstrf`].
    pub fn tstrf_on<S: Scalar>(
        &self,
        flops: f64,
        diag_lu: &CscMatrix<S>,
        b: &CscMatrix<S>,
    ) -> TrsmVariant {
        let (m, n) = (b.nrows(), b.ncols());
        if self.tile_panel(flops, m * n * n, diag_lu, m) {
            TrsmVariant::DV1
        } else {
            self.tstrf(b.nnz())
        }
    }

    /// The SSSSM leaf for `C ← C − A·B` of `flops` model FLOPs: the
    /// dense-tile lane when the target is full and the update is at
    /// least [`TILE_MIN_FILL`] of the padded dense product, else
    /// [`Self::ssssm`]. Structure only, like the panel leaves.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::dense_block;

    /// The selection the library ships, pinned on a log grid of the
    /// features (nnz 0…1e9, FLOPs 0…1e12) plus the cut points: every
    /// class's variant and planned gate for the default thresholds,
    /// `unplanned()` and the Figure 14 baseline, whatever matrix size the
    /// selector was given — and the dense-tile lane's rules on kkt's
    /// shapes, circuit's narrow panels and the remainders, under full and
    /// holed factor blocks, at eighths of the padded count and one FLOP
    /// under each cut.
    #[test]
    fn selection_table_is_the_calibrated_closed_form() {
        let cuts = [31.0, 32.0, 129.0, 130.0, 999.0, 1e3, 32_999.0, 3.3e4];
        let grid: Vec<f64> = std::iter::once(0.0)
            .chain((0..=48).map(|e| 10f64.powf(f64::from(e) / 4.0)))
            .chain(cuts)
            .collect();
        let selectors = [
            (KernelSelector::new(1_000, Thresholds::default()), true, true),
            (KernelSelector::new(10_000_000, Thresholds::default()), true, true),
            (KernelSelector::new(1_000, Thresholds::unplanned()), true, false),
            (KernelSelector::new(10_000_000, Thresholds::unplanned()), true, false),
            (KernelSelector::baseline(), false, false),
        ];
        for (s, adaptive, planned) in selectors {
            for &flops in &grid {
                let ssssm = if adaptive { SsssmVariant::CV1 } else { SsssmVariant::GV1 };
                assert_eq!(s.ssssm(flops), ssssm, "ssssm, flops {flops}");
                assert_eq!(s.planned_ssssm(flops), planned && flops < 3.3e4, "flops {flops}");
                if flops > 1e9 {
                    continue;
                }
                let nnz = flops as usize;
                let (getrf, gessm, tstrf) = if !adaptive {
                    (GetrfVariant::GV1, TrsmVariant::GV1, TrsmVariant::GV1)
                } else {
                    let trsm = |cut| if nnz < cut { TrsmVariant::CV1 } else { TrsmVariant::CV2 };
                    (GetrfVariant::CV1, trsm(130), trsm(32))
                };
                assert_eq!(s.getrf(nnz), getrf, "getrf, nnz {nnz}");
                assert_eq!(s.gessm(nnz), gessm, "gessm, nnz {nnz}");
                assert_eq!(s.tstrf(nnz), tstrf, "tstrf, nnz {nnz}");
                assert_eq!(s.planned_getrf(nnz), planned, "getrf gate, nnz {nnz}");
                assert_eq!(s.planned_gessm(nnz), planned && nnz < 1_000, "gessm gate, nnz {nnz}");
                assert_eq!(s.planned_tstrf(nnz), planned && nnz < 1_000, "tstrf gate, nnz {nnz}");
            }
            // The lane's leaves: a panel solve takes `D_V1` from
            // `PANEL_MIN_FILL` of its padded count up (`n·m·(m−1)` for
            // GESSM, `m·n²` for TSTRF; never with no padded work), under
            // a factor block with a hole only when the panel spans half
            // its order or more; an update onto a full target from
            // `TILE_MIN_FILL` of `2·m·k·n`; below, and on the baseline,
            // the tree's pick.
            let shapes =
                [(1, 1), (1, 5), (8, 5), (5, 8), (69, 119), (119, 69), (113, 11), (11, 113)];
            for (m, n) in shapes {
                let panel = dense_block(m, n, 2);
                let padded = [n * m * m.saturating_sub(1), m * n * n, 2 * m * n * n];
                let mut factors = vec![(dense_block(m, m, 0), dense_block(n, n, 1), true)];
                if m > 1 && n > 1 {
                    let hole = |f: CscMatrix| f.filter_entries(|i, j| (i, j) != (1, 0));
                    factors.push((hole(dense_block(m, m, 0)), hole(dense_block(n, n, 1)), false));
                }
                let panel_lane = |fl: f64, p: usize, full: bool, across: usize, order: usize| {
                    let wide = full || 2 * across >= order;
                    adaptive && p > 0 && fl >= PANEL_MIN_FILL * p as f64 && wide
                };
                for (rows, cols, full) in &factors {
                    for p in padded {
                        let cuts = [PANEL_MIN_FILL, TILE_MIN_FILL].map(|c| c * p as f64 - 1.0);
                        let eighths = (0..=8).map(|e| f64::from(e) / 8.0 * p as f64);
                        for fl in eighths.chain(cuts).filter(|&f| f >= 0.0) {
                            let tag = format!("{m}x{n} full factor {full}, {fl} FLOPs");
                            let want = if panel_lane(fl, padded[0], *full, n, m) {
                                TrsmVariant::DV1
                            } else {
                                s.gessm(m * n)
                            };
                            assert_eq!(s.gessm_on(fl, rows, &panel), want, "GESSM {tag}");
                            let want = if panel_lane(fl, padded[1], *full, m, n) {
                                TrsmVariant::DV1
                            } else {
                                s.tstrf(m * n)
                            };
                            assert_eq!(s.tstrf_on(fl, cols, &panel), want, "TSTRF {tag}");
                            let lane = adaptive && fl >= TILE_MIN_FILL * padded[2] as f64;
                            let want = if lane { SsssmVariant::DV1 } else { s.ssssm(fl) };
                            assert_eq!(s.ssssm_on(fl, &panel, &panel), want, "SSSSM {tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_leaf_needs_the_fill_cuts_and_a_full_update_target() {
        let s = KernelSelector::new(1_000, Thresholds::default());
        let (full, wide) = (dense_block(8, 8, 0), dense_block(8, 5, 1));
        let holed = full.filter_entries(|i, j| (i, j) != (3, 4));

        // GESSM of an 8 x 8 factor over an 8 x 5 panel: padded 5*8*7 = 280
        // FLOPs, cut 56; TSTRF of an 8 x 8 panel over an 8 x 8 factor:
        // 8*8*8 = 512, cut 102.4. A holed factor under an 8-wide panel
        // is shared widely enough; under a 3-wide one it is not.
        assert_eq!(s.gessm_on(280.0, &full, &wide), TrsmVariant::DV1);
        assert_eq!(s.gessm_on(56.0, &holed, &wide), TrsmVariant::DV1, "at the cut");
        assert_eq!(s.gessm_on(55.0, &full, &wide), s.gessm(wide.nnz()));
        let narrow = dense_block(8, 3, 1);
        assert_eq!(s.gessm_on(168.0, &full, &narrow), TrsmVariant::DV1);
        assert_eq!(s.gessm_on(168.0, &holed, &narrow), s.gessm(narrow.nnz()), "too narrow");
        assert_eq!(s.tstrf_on(512.0, &full, &full), TrsmVariant::DV1);
        assert_eq!(s.tstrf_on(102.4, &full, &holed), TrsmVariant::DV1, "at the cut");
        assert_eq!(s.tstrf_on(102.0, &full, &holed), s.tstrf(holed.nnz()));
        let (one, row) = (dense_block(1, 1, 0), dense_block(1, 5, 2));
        assert_eq!(s.gessm_on(0.0, &one, &row), s.gessm(row.nnz()), "no padded work");
        assert_eq!(s.getrf_on(&full), GetrfVariant::DV1);
        assert_eq!(s.getrf_on(&holed), s.getrf(holed.nnz()));

        // 8 x 8 x 5 update: padded count 2*8*8*5 = 640 FLOPs.
        let at_cut = TILE_MIN_FILL * 640.0;
        assert_eq!(s.ssssm_on(640.0, &full, &wide), SsssmVariant::DV1);
        assert_eq!(s.ssssm_on(at_cut, &full, &wide), SsssmVariant::DV1);
        assert_eq!(s.ssssm_on(at_cut - 2.0, &full, &wide), s.ssssm(at_cut - 2.0));
        assert_eq!(s.ssssm_on(640.0, &full, &holed), s.ssssm(640.0), "target must be full");

        // The fixed pre-selection kernels of the Figure 14 baseline stay.
        let base = KernelSelector::baseline();
        assert_eq!(base.gessm_on(280.0, &full, &wide), TrsmVariant::GV1);
        assert_eq!(base.tstrf_on(512.0, &full, &full), TrsmVariant::GV1);
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
            [KernelSelector::baseline(), KernelSelector::new(1_000, Thresholds::unplanned())]
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

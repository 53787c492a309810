//! Metered kernel entry points.
//!
//! [`TimedKernels`] is the one place a routed task turns into a kernel
//! call: it takes the [`Route`] the plan pool decided (replay a plan, or
//! run the tree's variant), executes it, and records it in a per-rank
//! [`KernelTally`] — variant, elapsed time and model FLOPs. The caller
//! passes each task's model FLOPs in: the [`crate::flops`] count the
//! task graph computed once at analysis, never re-derived here. Each
//! executor thread owns one wrapper, so an enabled meter costs two clock
//! reads and one tally add per call on a thread-local struct — no
//! pattern walks, no atomics, no locks.
//!
//! Built disabled, every method delegates straight to the raw kernel:
//! no clock reads, no tally writes. `tests/metrics.rs` proves metered and
//! unmetered runs produce the same factor bits; the benchmark's
//! `dist.meter_overhead` reports what the enabled meter costs a run
//! (docs/PERFORMANCE.md "The kernel meter").

use std::time::Instant;

use pangulu_metrics::{
    KernelTally, MemStats, CLASS_GESSM, CLASS_GETRF, CLASS_SSSSM, CLASS_TSTRF, VARIANT_PLANNED,
    VARIANT_TILE,
};
use pangulu_sparse::{CscMatrix, Scalar};

use crate::plan::{Plan, Route};
use crate::scratch::KernelScratch;
use crate::{getrf, plan, ssssm, trsm, GetrfVariant, SsssmVariant, TrsmVariant};

/// Tally slot of a GETRF variant (`VARIANT_LABELS` index).
fn getrf_slot(v: GetrfVariant) -> usize {
    match v {
        GetrfVariant::CV1 => 0,
        GetrfVariant::GV1 => 2,
        GetrfVariant::GV2 => 3,
        GetrfVariant::DV1 => VARIANT_TILE,
    }
}

/// Tally slot of a GESSM/TSTRF variant.
fn trsm_slot(v: TrsmVariant) -> usize {
    match v {
        TrsmVariant::CV1 => 0,
        TrsmVariant::CV2 => 1,
        TrsmVariant::GV1 => 2,
        TrsmVariant::GV2 => 3,
        TrsmVariant::GV3 => 4,
        TrsmVariant::DV1 => VARIANT_TILE,
    }
}

/// Tally slot of an SSSSM variant.
fn ssssm_slot(v: SsssmVariant) -> usize {
    match v {
        SsssmVariant::CV1 => 0,
        SsssmVariant::CV2 => 1,
        SsssmVariant::GV1 => 2,
        SsssmVariant::GV2 => 3,
        SsssmVariant::DV1 => VARIANT_TILE,
    }
}

/// Per-executor front door to the kernel implementations: runs each task
/// along the [`Route`] the plan pool decided, meters it when enabled, and
/// counts plan replays either way.
#[derive(Debug, Default)]
pub struct TimedKernels {
    enabled: bool,
    tally: KernelTally,
    /// Plan replays through this door and what their plans held
    /// (static per plan, so deterministic); see [`MemStats`].
    planned_calls: u64,
    searches_avoided: u64,
    plan_runs: u64,
    run_entries: u64,
}

impl TimedKernels {
    /// Creates a wrapper; `enabled = false` makes every call a plain
    /// delegation with no measurement at all.
    pub fn new(enabled: bool) -> Self {
        TimedKernels { enabled, ..Default::default() }
    }

    /// Whether invocations are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The tally accumulated so far (empty when disabled).
    pub fn tally(&self) -> &KernelTally {
        &self.tally
    }

    /// Consumes the wrapper, returning its tally.
    pub fn into_tally(self) -> KernelTally {
        self.tally
    }

    /// Adds this door's plan-replay counters to `mem`.
    pub fn add_counts_to(&self, mem: &mut MemStats) {
        mem.planned_calls += self.planned_calls;
        mem.index_searches_avoided += self.searches_avoided;
        mem.plan_runs += self.plan_runs;
        mem.run_axpy_entries += self.run_entries;
    }

    fn note_replay(&mut self, p: &Plan) {
        self.planned_calls += 1;
        self.searches_avoided += u64::from(p.searches_avoided);
        self.plan_runs += u64::from(p.runs);
        self.run_entries += u64::from(p.run_entries);
    }

    /// Opens a meter reading: the task's model FLOPs and the clock.
    fn start(&self, model_flops: f64) -> Option<(f64, Instant)> {
        self.enabled.then(|| (model_flops, Instant::now()))
    }

    fn stop(&mut self, class: usize, slot: usize, meter: Option<(f64, Instant)>) {
        if let Some((fl, start)) = meter {
            self.tally.record(class, slot, elapsed_nanos(start), fl);
        }
    }

    /// Runs a GETRF task along `route`; returns the perturbed-pivot
    /// count. `model_flops` is what the meter records for the call (the
    /// task graph's count for this block); a replay tallies under the
    /// `P_V1` slot with the same model FLOPs as the unplanned kernel
    /// (identical arithmetic, so the observed == predicted FLOPs
    /// invariant is preserved) — likewise for the other three classes.
    pub fn getrf<S: Scalar>(
        &mut self,
        route: Route<'_, GetrfVariant>,
        a: &mut CscMatrix<S>,
        scratch: &mut KernelScratch<S>,
        pivot_floor: f64,
        model_flops: f64,
    ) -> usize {
        let meter = self.start(model_flops);
        let (slot, perturbed) = match route {
            Route::Plan(p, arena) => {
                self.note_replay(p);
                (VARIANT_PLANNED, plan::getrf_planned(a, p, arena, scratch, pivot_floor))
            }
            Route::Variant(v) => (getrf_slot(v), getrf::getrf(a, v, scratch, pivot_floor)),
        };
        self.stop(CLASS_GETRF, slot, meter);
        perturbed
    }

    /// Runs a GESSM task along `route`.
    pub fn gessm<S: Scalar>(
        &mut self,
        route: Route<'_, TrsmVariant>,
        diag_lu: &CscMatrix<S>,
        b: &mut CscMatrix<S>,
        scratch: &mut KernelScratch<S>,
        model_flops: f64,
    ) {
        let meter = self.start(model_flops);
        let slot = match route {
            Route::Plan(p, arena) => {
                self.note_replay(p);
                plan::gessm_planned(diag_lu, b, p, arena);
                VARIANT_PLANNED
            }
            Route::Variant(v) => {
                trsm::gessm(diag_lu, b, v, scratch);
                trsm_slot(v)
            }
        };
        self.stop(CLASS_GESSM, slot, meter);
    }

    /// Runs a TSTRF task along `route`.
    pub fn tstrf<S: Scalar>(
        &mut self,
        route: Route<'_, TrsmVariant>,
        diag_lu: &CscMatrix<S>,
        b: &mut CscMatrix<S>,
        scratch: &mut KernelScratch<S>,
        model_flops: f64,
    ) {
        let meter = self.start(model_flops);
        let slot = match route {
            Route::Plan(p, arena) => {
                self.note_replay(p);
                plan::tstrf_planned(diag_lu, b, p, arena);
                VARIANT_PLANNED
            }
            Route::Variant(v) => {
                trsm::tstrf(diag_lu, b, v, scratch);
                trsm_slot(v)
            }
        };
        self.stop(CLASS_TSTRF, slot, meter);
    }

    /// Runs an SSSSM task along `route`, metered with `model_flops` (the
    /// task graph's count, which also routed the task).
    pub fn ssssm<S: Scalar>(
        &mut self,
        route: Route<'_, SsssmVariant>,
        a: &CscMatrix<S>,
        b: &CscMatrix<S>,
        c: &mut CscMatrix<S>,
        scratch: &mut KernelScratch<S>,
        model_flops: f64,
    ) {
        let meter = self.start(model_flops);
        let slot = match route {
            Route::Plan(p, arena) => {
                self.note_replay(p);
                plan::ssssm_planned(a, b, c, p, arena);
                VARIANT_PLANNED
            }
            Route::Variant(v) => {
                ssssm::ssssm(a, b, c, v, scratch);
                ssssm_slot(v)
            }
        };
        self.stop(CLASS_SSSSM, slot, meter);
    }
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops;
    use pangulu_sparse::CooMatrix;

    fn lower_block(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            for i in j..n {
                coo.push(i, j, if i == j { 2.0 } else { 1.0 }).unwrap();
            }
        }
        coo.to_csc()
    }

    fn dense_block(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            for i in 0..n {
                coo.push(i, j, 1.0 + (i * n + j) as f64 / 16.0).unwrap();
            }
        }
        coo.to_csc()
    }

    #[test]
    fn enabled_wrapper_matches_raw_kernels_and_records() {
        let mut timed = TimedKernels::new(true);
        let mut scratch = KernelScratch::default();

        let mut via_timed = dense_block(6);
        let mut via_raw = via_timed.clone();
        let fl = flops::getrf_flops(&via_timed);
        let p1 =
            timed.getrf(Route::Variant(GetrfVariant::CV1), &mut via_timed, &mut scratch, 1e-12, fl);
        let p2 = getrf::getrf(&mut via_raw, GetrfVariant::CV1, &mut scratch, 1e-12);
        assert_eq!(p1, p2);
        assert_eq!(via_timed.values(), via_raw.values());

        let diag = lower_block(6);
        let mut rhs_timed = dense_block(6);
        let mut rhs_raw = rhs_timed.clone();
        let fl = flops::gessm_flops(&diag, &rhs_timed);
        timed.gessm(Route::Variant(TrsmVariant::CV1), &diag, &mut rhs_timed, &mut scratch, fl);
        trsm::gessm(&diag, &mut rhs_raw, TrsmVariant::CV1, &mut scratch);
        assert_eq!(rhs_timed.values(), rhs_raw.values());

        let fac = {
            let mut blk = dense_block(6);
            getrf::getrf(&mut blk, GetrfVariant::CV1, &mut scratch, 1e-12);
            blk
        };
        let mut low_timed = dense_block(6);
        let mut low_raw = low_timed.clone();
        let fl = flops::tstrf_flops(&fac, &low_timed);
        timed.tstrf(Route::Variant(TrsmVariant::CV2), &fac, &mut low_timed, &mut scratch, fl);
        trsm::tstrf(&fac, &mut low_raw, TrsmVariant::CV2, &mut scratch);
        assert_eq!(low_timed.values(), low_raw.values());

        let a = dense_block(6);
        let b = dense_block(6);
        let mut c_timed = dense_block(6);
        let mut c_raw = c_timed.clone();
        let fl = flops::ssssm_flops(&a, &b);
        timed.ssssm(Route::Variant(SsssmVariant::CV1), &a, &b, &mut c_timed, &mut scratch, fl);
        ssssm::ssssm(&a, &b, &mut c_raw, SsssmVariant::CV1, &mut scratch);
        assert_eq!(c_timed.values(), c_raw.values());

        let tally = timed.tally();
        assert_eq!(tally.total_calls(), 4);
        assert_eq!(tally.calls_by_class(), [1, 1, 1, 1]);
        assert!(tally.total_flops() > 0.0);
        let labels: Vec<_> = tally.entries().map(|(c, v, _)| (c, v)).collect();
        assert!(labels.contains(&("GETRF", "C_V1")));
        assert!(labels.contains(&("GESSM", "C_V1")));
        assert!(labels.contains(&("TSTRF", "C_V2")));
        assert!(labels.contains(&("SSSSM", "C_V1")));
    }

    #[test]
    fn disabled_wrapper_records_nothing() {
        let mut timed = TimedKernels::new(false);
        let mut scratch = KernelScratch::default();
        let mut blk = dense_block(5);
        timed.getrf(Route::Variant(GetrfVariant::CV1), &mut blk, &mut scratch, 1e-12, 1.0);
        assert_eq!(timed.tally().total_calls(), 0);
        assert_eq!(timed.into_tally(), KernelTally::default());
    }

    /// The meter records the caller's `model_flops` verbatim: sentinels
    /// no operand walk could produce come back exactly, per class, on
    /// both the variant and the planned route.
    #[test]
    fn meter_records_the_given_model_flops_verbatim() {
        use crate::plan::{build_gessm_plan, build_ssssm_plan};

        let mut timed = TimedKernels::new(true);
        let mut scratch = KernelScratch::default();
        let mut arena = Vec::new();
        let fac = {
            let mut blk = dense_block(5);
            getrf::getrf(&mut blk, GetrfVariant::CV1, &mut scratch, 1e-12);
            blk
        };
        let (a, b) = (dense_block(5), dense_block(5));
        let sentinels = [0.25, 1.0e15, 7.5, 3.0e-3];

        timed.getrf(
            Route::Variant(GetrfVariant::CV1),
            &mut dense_block(5),
            &mut scratch,
            1e-12,
            sentinels[0],
        );
        let mut panel = dense_block(5);
        let gplan = build_gessm_plan(&fac, &panel, &mut arena).unwrap();
        timed.gessm(Route::Plan(&gplan, &arena), &fac, &mut panel, &mut scratch, sentinels[1]);
        timed.tstrf(
            Route::Variant(TrsmVariant::CV2),
            &fac,
            &mut dense_block(5),
            &mut scratch,
            sentinels[2],
        );
        let mut c = dense_block(5);
        let splan = build_ssssm_plan(&a, &b, &c, &mut arena).unwrap();
        timed.ssssm(Route::Plan(&splan, &arena), &a, &b, &mut c, &mut scratch, sentinels[3]);

        let mut by_class = [0.0f64; 4];
        for (class, _, slot) in timed.tally().entries() {
            let c = pangulu_metrics::CLASS_LABELS.iter().position(|&l| l == class).unwrap();
            by_class[c] += slot.flops;
        }
        assert_eq!(by_class.map(f64::to_bits), sentinels.map(f64::to_bits));
        assert_eq!(timed.tally().calls_by_class(), [1, 1, 1, 1]);
    }

    #[test]
    fn variant_slots_map_to_table_one_labels() {
        use pangulu_metrics::VARIANT_LABELS;
        assert_eq!(VARIANT_LABELS[getrf_slot(GetrfVariant::GV1)], "G_V1");
        assert_eq!(VARIANT_LABELS[getrf_slot(GetrfVariant::GV2)], "G_V2");
        assert_eq!(VARIANT_LABELS[trsm_slot(TrsmVariant::GV3)], "G_V3");
        assert_eq!(VARIANT_LABELS[ssssm_slot(SsssmVariant::CV2)], "C_V2");
        assert_eq!(VARIANT_LABELS[VARIANT_PLANNED], "P_V1");
        assert_eq!(VARIANT_LABELS[getrf_slot(GetrfVariant::DV1)], "D_V1");
        assert_eq!(VARIANT_LABELS[trsm_slot(TrsmVariant::DV1)], "D_V1");
        assert_eq!(VARIANT_LABELS[ssssm_slot(SsssmVariant::DV1)], "D_V1");
    }

    /// The tile lane tallies under its own label with the structural
    /// model FLOPs (never the padded dense count), once per update.
    #[test]
    fn tile_lane_records_dv1_with_model_flops() {
        let mut timed = TimedKernels::new(true);
        let mut scratch = KernelScratch::default();
        let fac = {
            let mut blk = dense_block(6);
            let fl = flops::getrf_flops(&blk);
            timed.getrf(Route::Variant(GetrfVariant::DV1), &mut blk, &mut scratch, 1e-12, fl);
            blk
        };
        let mut panel = dense_block(6);
        let (gfl, tfl) = (flops::gessm_flops(&fac, &panel), flops::tstrf_flops(&fac, &panel));
        timed.gessm(Route::Variant(TrsmVariant::DV1), &fac, &mut panel, &mut scratch, gfl);
        timed.tstrf(Route::Variant(TrsmVariant::DV1), &fac, &mut panel, &mut scratch, tfl);

        // A holed operand: model FLOPs stay below the padded 2*6*6*6.
        let a = dense_block(6).filter_entries(|i, j| !(i + j).is_multiple_of(4));
        let b = dense_block(6);
        let fl = flops::ssssm_flops(&a, &b);
        assert!(fl < 432.0);
        let mut c = dense_block(6);
        for v in [SsssmVariant::DV1, SsssmVariant::DV1, SsssmVariant::CV1] {
            timed.ssssm(Route::Variant(v), &a, &b, &mut c, &mut scratch, fl);
        }

        let tile: Vec<_> = timed.tally().entries().filter(|(_, v, _)| *v == "D_V1").collect();
        let calls = |class: &str| tile.iter().find(|(c, ..)| *c == class).map(|(.., s)| s.calls);
        let tile_calls = [calls("GETRF"), calls("GESSM"), calls("TSTRF"), calls("SSSSM")];
        assert_eq!(tile_calls, [Some(1), Some(1), Some(1), Some(2)]);
        let ssssm_tile = tile.iter().find(|(c, ..)| *c == "SSSSM").unwrap().2;
        assert_eq!(ssssm_tile.flops, 2.0 * fl);
        assert_eq!(timed.tally().calls_by_class(), [1, 1, 1, 3]);
    }

    #[test]
    fn planned_wrappers_match_raw_and_record_pv1() {
        use crate::plan::{build_getrf_plan, build_ssssm_plan};

        let mut timed = TimedKernels::new(true);
        let mut scratch = KernelScratch::default();
        let mut arena = Vec::new();

        let block = dense_block(6);
        let gplan = build_getrf_plan(&block, &mut arena).unwrap();
        let mut via_timed = block.clone();
        let mut via_raw = block.clone();
        let fl = flops::getrf_flops(&block);
        let p1 = timed.getrf(Route::Plan(&gplan, &arena), &mut via_timed, &mut scratch, 1e-12, fl);
        let p2 = getrf::getrf(&mut via_raw, GetrfVariant::CV1, &mut scratch, 1e-12);
        assert_eq!(p1, p2);
        assert_eq!(via_timed.values(), via_raw.values());

        let a = dense_block(6);
        let b = dense_block(6);
        let c0 = dense_block(6);
        let splan = build_ssssm_plan(&a, &b, &c0, &mut arena).unwrap();
        let mut c_timed = c0.clone();
        let mut c_raw = c0.clone();
        let fl = flops::ssssm_flops(&a, &b);
        timed.ssssm(Route::Plan(&splan, &arena), &a, &b, &mut c_timed, &mut scratch, fl);
        ssssm::ssssm(&a, &b, &mut c_raw, SsssmVariant::CV1, &mut scratch);
        assert_eq!(c_timed.values(), c_raw.values());

        let labels: Vec<_> = timed.tally().entries().map(|(c, v, _)| (c, v)).collect();
        assert!(labels.contains(&("GETRF", "P_V1")));
        assert!(labels.contains(&("SSSSM", "P_V1")));
        assert_eq!(timed.tally().calls_by_class(), [1, 0, 0, 1]);

        // Replays are counted whether or not the meter is on.
        let mut mem = MemStats::default();
        timed.add_counts_to(&mut mem);
        assert_eq!(mem.planned_calls, 2);
        let sum = |f: fn(&Plan) -> u32| u64::from(f(&gplan) + f(&splan));
        assert_eq!(mem.index_searches_avoided, sum(|p| p.searches_avoided));
        assert_eq!(mem.plan_runs, sum(|p| p.runs));
        assert_eq!(mem.run_axpy_entries, sum(|p| p.run_entries));
    }
}

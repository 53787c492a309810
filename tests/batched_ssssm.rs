//! Bitwise guard for the batched SSSSM path.
//!
//! In SyncFree mode the runtime fuses consecutive *ready* Schur updates
//! for a target block into one scatter → multi-axpy → gather pass
//! (`pangulu::kernels::ssssm::ssssm_batch`). The batch width depends on
//! message arrival timing, so the only acceptable behaviour is that the
//! fused pass performs exactly the floating-point operations of applying
//! each update one at a time in ascending elimination-step order — i.e.
//! the factors must be **bitwise identical** to a traced run, which
//! applies updates one at a time by construction (`FactorConfig::traced`),
//! whatever the grid shape and however a fault plan perturbs arrival
//! timing/order.

use std::time::Duration;

use pangulu::comm::{FaultPlan, ProcessGrid};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig, ScheduleMode};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::ensure_diagonal;
use pangulu::sparse::CscMatrix;

const GRIDS: [(usize, usize); 3] = [(1, 4), (2, 2), (4, 1)];

struct Problem {
    bm: BlockMatrix,
    tg: TaskGraph,
    sel: KernelSelector,
}

fn problem(seed: u64) -> Problem {
    let a = ensure_diagonal(&gen::random_sparse(84, 0.11, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, 9).unwrap();
    let tg = TaskGraph::build(&bm);
    // Planned gates closed: with them open the selector sends small
    // updates through their index maps (splitting runs into planned calls
    // and fused variant segments), and this suite guards the pure
    // `ssssm_batch` path. Planned/unplanned bitwise identity — including
    // the mixed segmented path — is covered by `tests/determinism.rs`.
    let sel = KernelSelector::new(a.nnz(), Thresholds::unplanned());
    Problem { bm, tg, sel }
}

/// Returns the factors and the number of fused (width > 1) SSSSM calls.
fn factor(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> (CscMatrix, u64) {
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
    let run = factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, cfg)
        .unwrap_or_else(|e| panic!("{pr}x{pc}: {e}"));
    (bm.to_csc(), run.report.total_mem().ssssm_batches)
}

/// A delay+reorder plan: jitters arrival enough to produce a spread of
/// batch widths without changing which messages exist.
fn jitter(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed).with_delays(0.5, Duration::from_micros(250)).with_reordering(3)
}

/// Batched factors are bitwise equal to one-at-a-time (traced) factors
/// on every grid shape, with and without fault jitter, across five
/// seeds. Also asserts the comparison has teeth: across the jittered runs
/// at least one fused batch must actually have formed, and the traced
/// runs must never batch.
#[test]
fn batched_matches_one_at_a_time_bitwise() {
    let mut fused_total = 0u64;
    for seed in [31u64, 32, 33, 34, 35] {
        let prob = problem(seed);
        for (pr, pc) in GRIDS {
            let base = FactorConfig::with_mode(ScheduleMode::SyncFree);
            let (batched, nb) = factor(&prob, pr, pc, &base);
            let (serial, ns) = factor(&prob, pr, pc, &base.clone().traced());
            assert_eq!(ns, 0, "seed {seed} {pr}x{pc}: traced run still fused");
            assert_eq!(
                batched.values(),
                serial.values(),
                "seed {seed} {pr}x{pc}: batched SSSSM diverged from one-at-a-time"
            );

            let jittered = base.with_fault(jitter(seed * 7 + 1));
            let (batched_j, nj) = factor(&prob, pr, pc, &jittered);
            let (serial_j, _) = factor(&prob, pr, pc, &jittered.traced());
            assert_eq!(
                batched_j.values(),
                serial_j.values(),
                "seed {seed} {pr}x{pc}: batched SSSSM diverged under fault jitter"
            );
            assert_eq!(
                batched.values(),
                batched_j.values(),
                "seed {seed} {pr}x{pc}: fault jitter changed the batched factors"
            );
            fused_total += nb + nj;
        }
    }
    assert!(fused_total > 0, "no run ever fused a batch — the bitwise comparison is vacuous");
}

/// LevelSet mode never batches (its barriers are defined per update) and
/// agrees with SyncFree.
#[test]
fn levelset_never_batches() {
    let prob = problem(36);
    let (sync, _) = factor(&prob, 2, 2, &FactorConfig::with_mode(ScheduleMode::SyncFree));
    let (f, fused) = factor(&prob, 2, 2, &FactorConfig::with_mode(ScheduleMode::LevelSet));
    assert_eq!(fused, 0, "LevelSet fused a batch despite per-step barriers");
    assert_eq!(f.values(), sync.values(), "LevelSet factors diverged from SyncFree reference");
}

/// A fused batch on a **full** target whose members are all
/// sparse-routed (no `D_V1` among them): the target's columns already are
/// the dense buffer, so the batch is applied in order straight on them —
/// bitwise equal to one-at-a-time application, in both widths, whatever
/// the members' variants and wherever the batch is split.
#[test]
fn all_sparse_batch_on_a_full_target_matches_one_at_a_time() {
    use pangulu::kernels::ssssm::{ssssm, ssssm_batch};
    use pangulu::kernels::{KernelScratch, SsssmUpdate, SsssmVariant};
    use pangulu::sparse::Scalar;

    fn check<S: Scalar>(ops: &[(CscMatrix<S>, CscMatrix<S>)], c0: &CscMatrix<S>) {
        let variants = [SsssmVariant::CV1, SsssmVariant::CV2, SsssmVariant::CV2];
        let updates: Vec<SsssmUpdate<'_, S>> = (ops.iter().zip(variants))
            .map(|((a, b), variant)| SsssmUpdate { a, b, variant, model_flops: 0.0 })
            .collect();
        let mut scratch = KernelScratch::<S>::default();
        let mut one_by_one = c0.clone();
        for u in &updates {
            ssssm(u.a, u.b, &mut one_by_one, u.variant, &mut scratch);
        }
        let bits = |m: &CscMatrix<S>| -> Vec<u64> {
            m.values().iter().map(|v| v.to_f64().to_bits()).collect()
        };
        for cut in 0..=updates.len() {
            let mut fused = c0.clone();
            ssssm_batch(&updates[..cut], &mut fused, &mut scratch);
            ssssm_batch(&updates[cut..], &mut fused, &mut scratch);
            assert_eq!(bits(&one_by_one), bits(&fused), "{} split at {cut}", S::LABEL);
        }
    }

    for seed in 0..4u64 {
        // Operands at 15-60 % fill with exact zeros among B's values; the
        // target is full, so any product lands in its pattern.
        let (m, k, n) = (23, 17, 19);
        let c0 = gen::random_sparse(m.max(n), 1.0, seed).sub_matrix(0..m, 0..n);
        assert_eq!(c0.nnz(), m * n, "the target is full");
        let ops: Vec<(CscMatrix, CscMatrix)> = (0..4u64)
            .map(|t| {
                let a = gen::random_sparse(m.max(k), 0.15 + 0.15 * t as f64, 10 * seed + t);
                let b = gen::random_sparse(k.max(n), 0.3, 100 + 10 * seed + t);
                let b = b.sub_matrix(0..k, 0..n);
                let zeroed =
                    b.values().iter().enumerate().map(|(e, &v)| if e % 5 == 0 { 0.0 } else { v });
                (a.sub_matrix(0..m, 0..k), with_values(&b, zeroed.collect()))
            })
            .collect();
        check(&ops, &c0);
        let ops32: Vec<_> = ops.iter().map(|(a, b)| (a.cast::<f32>(), b.cast::<f32>())).collect();
        check(&ops32, &c0.cast::<f32>());
    }
}

fn with_values(m: &CscMatrix, values: Vec<f64>) -> CscMatrix {
    CscMatrix::from_parts(m.nrows(), m.ncols(), m.col_ptr().to_vec(), m.row_idx().to_vec(), values)
        .unwrap()
}

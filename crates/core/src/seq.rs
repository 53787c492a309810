//! Single-rank right-looking block factorisation.
//!
//! This is the "single GPU" configuration of the paper's Table 4. The
//! unplanned sweeps here are the correctness reference every executor is
//! held to (same kernels, same block structure, trivially deterministic
//! order) and the partial, Schur-complement factorisation; the planned
//! one-rank factorisation is the countdown engine run by one worker.

use std::time::{Duration, Instant};

use pangulu_kernels::{getrf, select::KernelSelector, ssssm, trsm, KernelPlans, KernelScratch};
use pangulu_sparse::Scalar;

use crate::block::BlockMatrix;
use crate::task::TaskGraph;

/// Timing and counting statistics of a numeric factorisation. The times
/// are kernel time per class, summed over the workers that ran them.
#[derive(Debug, Clone, Default)]
pub struct NumericStats {
    /// Time spent in GETRF kernels.
    pub getrf_time: Duration,
    /// Time spent in GESSM + TSTRF kernels (the paper's "panel
    /// factorisation" together with GETRF).
    pub trsm_time: Duration,
    /// Time spent in SSSSM kernels (the paper's "Schur" column).
    pub ssssm_time: Duration,
    /// Kernel invocation counts: `[GETRF, GESSM, TSTRF, SSSSM]`.
    pub kernel_counts: [usize; 4],
    /// Number of statically perturbed pivots.
    pub perturbed_pivots: usize,
    /// Total FLOPs performed.
    pub flops: f64,
}

impl NumericStats {
    /// Panel factorisation time (GETRF + triangular solves), Table 4.
    pub fn panel_time(&self) -> Duration {
        self.getrf_time + self.trsm_time
    }

    /// Total numeric kernel time.
    pub fn total_time(&self) -> Duration {
        self.panel_time() + self.ssssm_time
    }

    /// Achieved GFLOP/s over the total kernel time.
    pub fn gflops(&self) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.flops / secs / 1e9
        }
    }
}

/// Factorises the blocked matrix in place (packed `L\U` per block) with a
/// right-looking sweep over elimination steps. `pivot_floor` is the static
/// pivot perturbation threshold (0 disables perturbation; zero pivots are
/// then counted in `perturbed_pivots` and left in place).
///
/// This is the **unplanned reference sweep**: it never consults a kernel
/// plan, only the Figure 8 trees, and exists so tests can hold every
/// executor — planned or gate-closed — to its bits. The solver itself
/// runs [`factor_sequential_planned`].
pub fn factor_sequential<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
) -> NumericStats {
    factor_sequential_partial(bm, tg, selector, pivot_floor, bm.nblk())
}

/// Partial right-looking factorisation: eliminates block columns
/// `0..stop_at` only. On return the leading `stop_at` block rows/columns
/// hold their final `L\U` factors and the trailing blocks hold the
/// **Schur complement** `S = A22 − A21·A11⁻¹·A12` — the building block of
/// domain-decomposition and partial-elimination workflows. Use
/// [`BlockMatrix`]`::trailing_csc(stop_at)` to extract `S`.
pub fn factor_sequential_partial<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    stop_at: usize,
) -> NumericStats {
    let stop_at = stop_at.min(bm.nblk());
    let mut stats = NumericStats { flops: tg.total_flops(), ..Default::default() };
    let mut scratch = KernelScratch::with_capacity(bm.nb());
    // Cursor over `tg.ssssm`, whose build order matches this sweep's
    // (step, L-row, U-column) traversal exactly.
    let mut upd_idx = 0usize;

    for k in 0..stop_at {
        let diag_id = bm.block_id(k, k).expect("diagonal block exists");

        // GETRF on the diagonal block.
        let t0 = Instant::now();
        let variant = selector.getrf(bm.block(diag_id).nnz());
        stats.perturbed_pivots +=
            getrf::getrf(bm.block_mut(diag_id), variant, &mut scratch, pivot_floor);
        stats.getrf_time += t0.elapsed();
        stats.kernel_counts[0] += 1;

        // Panel solves.
        let t1 = Instant::now();
        for &j in &tg.u_panels[k] {
            let b_id = bm.block_id(k, j).expect("U panel exists");
            let variant = selector.gessm(bm.block(b_id).nnz());
            let (diag, b) = bm.block_pair_mut(diag_id, b_id);
            trsm::gessm(diag, b, variant, &mut scratch);
            stats.kernel_counts[1] += 1;
        }
        for &i in &tg.l_panels[k] {
            let b_id = bm.block_id(i, k).expect("L panel exists");
            let variant = selector.tstrf(bm.block(b_id).nnz());
            let (diag, b) = bm.block_pair_mut(diag_id, b_id);
            trsm::tstrf(diag, b, variant, &mut scratch);
            stats.kernel_counts[2] += 1;
        }
        stats.trsm_time += t1.elapsed();

        // Schur updates of the trailing sub-matrix.
        let t2 = Instant::now();
        for &i in &tg.l_panels[k] {
            let a_id = bm.block_id(i, k).expect("L panel exists");
            for &j in &tg.u_panels[k] {
                let Some(c_id) = bm.block_id(i, j) else {
                    continue; // structurally empty product
                };
                let b_id = bm.block_id(k, j).expect("U panel exists");
                debug_assert_eq!(tg.ssssm[upd_idx], (i, j, k), "update cursor out of sync");
                let variant = selector.ssssm(tg.ssssm_flops[upd_idx]);
                let (a, b, c) = bm.ssssm_operands(a_id, b_id, c_id);
                ssssm::ssssm(a, b, c, variant, &mut scratch);
                upd_idx += 1;
                stats.kernel_counts[3] += 1;
            }
        }
        stats.ssssm_time += t2.elapsed();
    }
    stats
}

/// Creates an empty kernel-plan pool sized for this block structure:
/// GETRF slots by elimination step, the panel solves by target block
/// id, SSSSM by task-graph update index — the slot keying every
/// executor in this crate uses. The pool has served no run, so the first
/// executor run on it builds no plan; the second builds them.
pub fn empty_plans<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> KernelPlans<S> {
    KernelPlans::with_slots(bm.nblk(), bm.num_blocks(), bm.num_blocks(), tg.ssssm.len())
}

/// The planned factorisation of the solver's one-rank mode: the countdown
/// engine's one-worker instance ([`crate::shared::factor_shared_planned`]
/// at one worker, on the caller's thread). Every task runs along the route
/// `plans` decides for it — its precomputed index plan where one was
/// built, the dense-tile lane or the tree's variant otherwise. The first
/// call on a fresh pool builds no plan; the second builds the missing
/// ones the selector's planned gates admit, and later calls reuse them
/// verbatim (the steady state of `Solver::refactor`). Results are bitwise
/// identical to the unplanned sweep [`factor_sequential`].
pub fn factor_sequential_planned<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    plans: &mut KernelPlans<S>,
) -> NumericStats {
    crate::shared::factor_shared_planned(bm, tg, selector, pivot_floor, 1, plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_kernels::reference;
    use pangulu_kernels::select::Thresholds;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_sparse::CscMatrix;
    use pangulu_symbolic::symbolic_fill;

    fn filled(a: &CscMatrix) -> CscMatrix {
        symbolic_fill(a).unwrap().filled_matrix(a).unwrap()
    }

    fn check_factorisation(a: &CscMatrix, nb: usize) {
        let f = filled(a);
        let expect = reference::ref_getrf(&f.to_dense());
        let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let selector = KernelSelector::new(a.nnz(), Thresholds::default());
        let stats = factor_sequential(&mut bm, &tg, &selector, 0.0);
        assert_eq!(stats.perturbed_pivots, 0);
        let got = bm.to_csc().to_dense();
        let diff = got.max_abs_diff(&expect);
        let scale = expect.norm_max().max(1.0);
        assert!(diff / scale < 1e-9, "nb {nb}: relative diff {}", diff / scale);
    }

    #[test]
    fn matches_dense_lu_small_random() {
        for seed in 0..3 {
            let a = ensure_diagonal(&gen::random_sparse(40, 0.15, seed)).unwrap();
            for nb in [5, 8, 16, 40] {
                check_factorisation(&a, nb);
            }
        }
    }

    #[test]
    fn matches_dense_lu_laplacian() {
        let a = gen::laplacian_2d(8, 8);
        for nb in [4, 9, 13, 64] {
            check_factorisation(&a, nb);
        }
    }

    #[test]
    fn block_size_one_works() {
        let a = ensure_diagonal(&gen::random_sparse(12, 0.25, 5)).unwrap();
        check_factorisation(&a, 1);
    }

    #[test]
    fn baseline_selector_gives_same_factor() {
        let a = ensure_diagonal(&gen::random_sparse(36, 0.2, 6)).unwrap();
        let f = filled(&a);
        let tg;
        let adaptive = {
            let mut bm = BlockMatrix::from_filled(&f, 9).unwrap();
            tg = TaskGraph::build(&bm);
            let sel = KernelSelector::new(a.nnz(), Thresholds::default());
            factor_sequential(&mut bm, &tg, &sel, 0.0);
            bm.to_csc()
        };
        let baseline = {
            let mut bm = BlockMatrix::from_filled(&f, 9).unwrap();
            let sel = KernelSelector::baseline();
            factor_sequential(&mut bm, &tg, &sel, 0.0);
            bm.to_csc()
        };
        let diff = adaptive.to_dense().max_abs_diff(&baseline.to_dense());
        assert!(diff < 1e-10, "kernel choice changed the factor: {diff}");
    }

    #[test]
    fn planned_sweep_is_bitwise_identical() {
        for seed in 0..3 {
            let a = ensure_diagonal(&gen::random_sparse(44, 0.15, seed)).unwrap();
            let f = filled(&a);
            for nb in [6, 11, 44] {
                let sel = KernelSelector::new(a.nnz(), Thresholds::default());
                let tg;
                let reference = {
                    let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
                    tg = TaskGraph::build(&bm);
                    factor_sequential(&mut bm, &tg, &sel, 0.0);
                    bm.to_csc()
                };
                // The first sweep on a fresh pool is plan-free, the second
                // builds the plans, the third reuses every plan verbatim:
                // bitwise the same result each time.
                let mut plans = empty_plans(&BlockMatrix::from_filled(&f, nb).unwrap(), &tg);
                let mut builds = Vec::new();
                for run in 0..3 {
                    let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
                    factor_sequential_planned(&mut bm, &tg, &sel, 0.0, &mut plans);
                    assert_eq!(
                        bm.to_csc().values(),
                        reference.values(),
                        "seed {seed} nb {nb} {run}"
                    );
                    builds.push(plans.stats().builds);
                }
                assert_eq!(builds[0], 0, "the first sweep planned");
                assert!(builds[1] > 0, "no plans were built");
                assert_eq!(builds[2], builds[1], "plans were rebuilt on reuse");
            }
        }
    }

    #[test]
    fn planned_sweep_behind_closed_gates_never_plans() {
        // The baseline (non-adaptive) selector and gate-closed thresholds
        // both keep every planned gate shut, so the planned entry point
        // degrades to the unplanned sweep — same bits — and builds nothing.
        let a = ensure_diagonal(&gen::random_sparse(30, 0.2, 9)).unwrap();
        let f = filled(&a);
        for sel in
            [KernelSelector::baseline(), KernelSelector::new(a.nnz(), Thresholds::unplanned())]
        {
            let mut reference = BlockMatrix::from_filled(&f, 8).unwrap();
            let tg = TaskGraph::build(&reference);
            factor_sequential(&mut reference, &tg, &sel, 0.0);
            let mut plans = empty_plans(&reference, &tg);
            for _ in 0..2 {
                let mut bm = BlockMatrix::from_filled(&f, 8).unwrap();
                factor_sequential_planned(&mut bm, &tg, &sel, 0.0, &mut plans);
                assert_eq!(bm.to_csc().values(), reference.to_csc().values());
            }
            assert_eq!(plans.stats().builds, 0);
            assert_eq!(plans.stats().bytes, 0);
        }
    }

    #[test]
    fn partial_factorisation_leaves_schur_complement() {
        // Compare the trailing blocks after eliminating the first block
        // column against the dense Schur complement.
        let nb = 10;
        let a = ensure_diagonal(&gen::random_sparse(3 * nb, 0.15, 8)).unwrap();
        let f = filled(&a);
        let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        factor_sequential_partial(&mut bm, &tg, &sel, 0.0, 1);

        // Dense reference: S = A22 - A21 A11^{-1} A12.
        let d = f.to_dense();
        let n = 3 * nb;
        let mut a11 = pangulu_sparse::DenseMatrix::zeros(nb, nb);
        let mut a12 = pangulu_sparse::DenseMatrix::zeros(nb, n - nb);
        let mut a21 = pangulu_sparse::DenseMatrix::zeros(n - nb, nb);
        let mut a22 = pangulu_sparse::DenseMatrix::zeros(n - nb, n - nb);
        for i in 0..n {
            for j in 0..n {
                let v = d[(i, j)];
                match (i < nb, j < nb) {
                    (true, true) => a11[(i, j)] = v,
                    (true, false) => a12[(i, j - nb)] = v,
                    (false, true) => a21[(i - nb, j)] = v,
                    (false, false) => a22[(i - nb, j - nb)] = v,
                }
            }
        }
        let mut lu11 = a11;
        lu11.lu_in_place().unwrap();
        // X = A11^{-1} A12 via the packed factor.
        let mut x = a12.clone();
        for c in 0..x.ncols() {
            let mut col: Vec<f64> = (0..nb).map(|r| x[(r, c)]).collect();
            lu11.solve_unit_lower(&mut col);
            lu11.solve_upper(&mut col);
            for r in 0..nb {
                x[(r, c)] = col[r];
            }
        }
        let mut schur = a22;
        pangulu_kernels::reference::ref_ssssm(&a21, &x, &mut schur);

        let got = bm.trailing_csc(1).to_dense();
        let diff = got.max_abs_diff(&schur);
        let scale = schur.norm_max().max(1.0);
        assert!(diff / scale < 1e-9, "schur complement differs: {}", diff / scale);
    }

    #[test]
    fn stats_count_all_kernels() {
        let a = gen::laplacian_2d(6, 6);
        let f = filled(&a);
        let mut bm = BlockMatrix::from_filled(&f, 6).unwrap();
        let tg = TaskGraph::build(&bm);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let stats = factor_sequential(&mut bm, &tg, &sel, 0.0);
        assert_eq!(stats.kernel_counts[0], bm.nblk());
        let panels: usize = tg.l_panels.iter().map(|v| v.len()).sum::<usize>()
            + tg.u_panels.iter().map(|v| v.len()).sum::<usize>();
        assert_eq!(stats.kernel_counts[1] + stats.kernel_counts[2], panels);
        assert_eq!(stats.kernel_counts[3], tg.ssssm.len());
        assert!(stats.flops > 0.0);
    }
}

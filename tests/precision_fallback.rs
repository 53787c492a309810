//! Transparent mixed-precision fallback: an ill-conditioned system
//! whose f32 factorisation cannot be refined to f64 accuracy must
//! re-factor in f64 behind the same API — no error reaches the caller,
//! the solve meets f64 accuracy, and the fallback is visible only in
//! the counters (`precision_fallbacks = 1`, both in
//! `Solver::precision_counters` and the multi-rank `RunReport`).

use pangulu::prelude::*;
use pangulu::sparse::ops::{relative_residual, spmv};
use pangulu::sparse::{gen, CooMatrix, CscMatrix};

/// The Hilbert matrix `H[i][j] = 1/(i+j+1)`: at order 10 its condition
/// number is ~1.6e13, so `cond(A)·eps_f32 ≫ 1` and f32-preconditioned
/// refinement stalls far above any f64 residual gate — while the f64
/// factorisation still solves it backward-stably. Its ill-conditioning
/// survives row/column scaling, which defeats MC64-equilibration
/// rescues that a merely badly-scaled fixture would enjoy.
fn hilbert(n: usize) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..n {
            coo.push(i, j, 1.0 / ((i + j + 1) as f64)).unwrap();
        }
    }
    coo.to_csc()
}

#[test]
fn ill_conditioned_fixture_falls_back_without_surfacing_an_error() {
    for (tag, ranks) in [("seq", 1usize), ("2x1 grid", 2), ("2x2 grid", 4)] {
        let a = hilbert(10);
        // The factorisation itself must succeed — the fallback is
        // internal, not an error path.
        let solver = Solver::builder()
            .precision(Precision::MixedF32)
            .ranks(ranks)
            .build(&a)
            .unwrap_or_else(|e| panic!("{tag}: fallback surfaced an error: {e}"));

        assert_eq!(solver.precision(), Precision::MixedF32, "{tag}: requested mode kept");
        assert_eq!(solver.effective_precision(), Precision::F64, "{tag}: factors must be f64");
        assert!(solver.factored32().is_none(), "{tag}: no f32 factors may survive a fallback");

        let c = solver.precision_counters();
        assert_eq!(c.precision_fallbacks, 1, "{tag}");
        assert_eq!(c.mixed_factors, 0, "{tag}");
        assert!(c.probe_refine_iters > 0, "{tag}: the probe never ran");

        if ranks > 1 {
            let report = solver.stats().report.as_ref().expect("multi-rank run report");
            assert_eq!(report.precision_fallbacks, 1, "{tag}: fallback missing from run report");
            assert_eq!(report.scalar_width, 8, "{tag}: report must come from the f64 run");
        }

        // And the solver actually solves the system at f64 accuracy.
        let x_true = gen::test_rhs(a.nrows(), 3);
        let b = spmv(&a, &x_true).unwrap();
        let x = solver.solve(&b).unwrap();
        let r = relative_residual(&a, &x, &b).unwrap();
        assert!(r < 1e-12, "{tag}: fallback residual {r:.3e}");
    }
}

/// A fallback pins the solver to f64 for its remaining lifetime:
/// refactoring with the same (still ill-conditioned) values does not
/// retry the f32 path, and the counters keep the single fallback.
#[test]
fn fallback_is_sticky_across_refactorisations() {
    let a = hilbert(10);
    let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
    assert_eq!(solver.precision_counters().precision_fallbacks, 1);

    solver.refactor(&a).unwrap();
    assert_eq!(solver.effective_precision(), Precision::F64);
    let c = solver.precision_counters();
    assert_eq!(c.precision_fallbacks, 1, "a sticky fallback must not re-probe and re-fall");
    assert_eq!(c.mixed_factors, 0);

    let x_true = gen::test_rhs(a.nrows(), 5);
    let b = spmv(&a, &x_true).unwrap();
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-12);
}

/// A well-conditioned system in the same session stays on the f32 path —
/// the fallback is a per-solver decision, not a global switch.
#[test]
fn fallback_does_not_leak_across_solvers() {
    let bad = hilbert(10);
    let good = gen::laplacian_2d(12, 12);
    let s_bad = Solver::builder().precision(Precision::MixedF32).build(&bad).unwrap();
    let s_good = Solver::builder().precision(Precision::MixedF32).build(&good).unwrap();
    assert_eq!(s_bad.effective_precision(), Precision::F64);
    assert_eq!(s_good.effective_precision(), Precision::MixedF32);
    assert_eq!(s_good.precision_counters().precision_fallbacks, 0);
}

/// `hilbert(10)` beside an uncoupled 6 × 6 grid Laplacian: the Hilbert
/// block sends the probe to f64, the grid block brings fill slots (which
/// the dense Hilbert matrix alone has none of).
fn hilbert_beside_grid() -> CscMatrix {
    let grid = gen::laplacian_2d(6, 6);
    let mut coo = CooMatrix::new(46, 46);
    for (i, j, v) in grid.iter() {
        coo.push(i, j, v).unwrap();
    }
    for (i, j, v) in hilbert(10).iter() {
        coo.push(36 + i, 36 + j, v).unwrap();
    }
    coo.to_csc()
}

/// Same pattern, values scaled entry by entry.
fn perturbed(a: &CscMatrix, by: impl Fn(usize) -> f64) -> CscMatrix {
    let values = a.values().iter().enumerate().map(|(k, v)| v * by(k)).collect();
    CscMatrix::from_parts(a.nrows(), a.ncols(), a.col_ptr().to_vec(), a.row_idx().to_vec(), values)
        .unwrap()
}

/// `a + I` on `a`'s pattern (every diagonal entry stored).
fn plus_identity(a: &CscMatrix) -> CscMatrix {
    let mut b = a.clone();
    for j in 0..a.ncols() {
        let k = a.find(j, j).expect("diagonal stored");
        b.values_mut()[k] += 1.0;
    }
    b
}

/// The bits of every stored factor value, through the f64 image.
fn factor_bits(s: &Solver) -> Vec<u64> {
    s.factored().to_csc().values().iter().map(|v| v.to_bits()).collect()
}

/// A fallback rebuilds the f64 store from the scaled input the mixed
/// solver keeps on A's own pattern, not from a resident f64 copy of the
/// factors; its factors are bit for bit an f64 solver's — after `build`,
/// after a refactorisation with perturbed values, and when the fallback
/// itself happens at a refactorisation.
#[test]
fn fallback_factors_are_bitwise_the_f64_solvers() {
    for (tag, a) in [("hilbert", hilbert(10)), ("hilbert + grid", hilbert_beside_grid())] {
        let nudged = perturbed(&a, |k| 1.0 + 1e-3 * (k % 7) as f64);
        // Same pattern, well conditioned.
        let good = plus_identity(&a);
        for ranks in [1usize, 2] {
            let f64_solver = || Solver::builder().ranks(ranks);
            let mixed_solver = || f64_solver().precision(Precision::MixedF32);
            let what = format!("{tag}, ranks {ranks}");

            let mut mixed = mixed_solver().build(&a).unwrap();
            let mut f64s = f64_solver().build(&a).unwrap();
            assert_eq!(mixed.effective_precision(), Precision::F64, "{what}");
            assert_eq!(factor_bits(&mixed), factor_bits(&f64s), "{what}: after build");
            mixed.refactor(&nudged).unwrap();
            f64s.refactor(&nudged).unwrap();
            assert_eq!(factor_bits(&mixed), factor_bits(&f64s), "{what}: after a refactor");

            // Accepted at build, rejected by the probe of the fourth
            // refactorisation (the first three skip it: cadence 4).
            let mut mixed = mixed_solver().build(&good).unwrap();
            let mut f64s = f64_solver().build(&good).unwrap();
            assert_eq!(mixed.effective_precision(), Precision::MixedF32, "{what}");
            for _ in 0..3 {
                mixed.refactor(&good).unwrap();
            }
            assert_eq!(mixed.precision_counters().probe_skips, 3, "{what}");
            mixed.refactor(&a).unwrap();
            f64s.refactor(&a).unwrap();
            assert_eq!(mixed.effective_precision(), Precision::F64, "{what}");
            assert_eq!(mixed.precision_counters().precision_fallbacks, 1, "{what}");
            assert_eq!(factor_bits(&mixed), factor_bits(&f64s), "{what}: refactor fallback");
        }
        let nnz_lu = Solver::factor(&a).unwrap().stats().symbolic.unwrap().nnz_lu;
        assert_eq!(nnz_lu > a.nnz(), tag != "hilbert", "{tag}: fill slots");
    }
}

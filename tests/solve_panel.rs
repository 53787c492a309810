//! The panel triangular solve against its per-right-hand-side meaning.
//!
//! `Solver::solve_multi` sweeps the factor once per panel of right-hand
//! sides; its contract is that every column comes out **bit for bit** as
//! the single-RHS path computes it — whatever else shares the panel,
//! whatever the column holds (exact zeros of either sign, unit vectors,
//! NaN, Inf), in f64 and in f32, in debug and in release builds (the
//! `solve` CI stage runs this file under both).

use proptest::prelude::*;

use pangulu::core::trisolve::{
    backward_substitute, backward_substitute_panel, forward_substitute, forward_substitute_panel,
    PANEL_WIDTH,
};
use pangulu::core::BlockMatrix;
use pangulu::prelude::*;
use pangulu::sparse::ops::relative_residual;
use pangulu::sparse::{gen, Scalar};

/// Panel widths on both sides of every dispatch boundary: the 1-lane
/// instance, ragged widths, the full-panel instance, one over.
const WIDTHS: [usize; 6] = [1, 2, 3, 8, PANEL_WIDTH, PANEL_WIDTH + 1];

fn matrix(which: usize) -> CscMatrix {
    match which % 3 {
        0 => gen::laplacian_2d(11, 10),
        1 => gen::circuit(130, 5),
        _ => gen::kkt(80, 30, 3),
    }
}

/// Right-hand side `j` of a hostile set: dense noise with exact `0.0`
/// and `-0.0` holes, unit vectors, one all-zero column, sign-flipped
/// sparse columns — every branch of the zero-skip rule, and columns that
/// start being non-zero at different rows.
fn rhs(n: usize, j: usize, seed: u64) -> Vec<f64> {
    let noise = gen::test_rhs(n, seed.wrapping_add(j as u64));
    match j % 6 {
        0 => noise,
        1 => noise
            .iter()
            .enumerate()
            .map(|(i, &v)| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            })
            .collect(),
        2 => {
            let mut e = vec![0.0; n];
            e[(seed as usize + 7 * j) % n] = 1.0;
            e
        }
        3 => vec![0.0; n],
        4 => {
            let mut e = vec![-0.0; n];
            e[n - 1 - (seed as usize + j) % n] = -2.5;
            e
        }
        _ => noise.iter().enumerate().map(|(i, &v)| if i < n / 2 { 0.0 } else { v }).collect(),
    }
}

fn rhs_set(n: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..k).map(|j| rhs(n, j, seed)).collect()
}

fn same_bits<S: Scalar>(a: &[S], b: &[S]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
}

/// Both sweeps over the columns as one row-major panel, unpacked again.
fn panel_sweeps<S: Scalar>(bm: &BlockMatrix<S>, cols: &[Vec<S>]) -> Vec<Vec<S>> {
    let (n, k) = (bm.n(), cols.len());
    let mut panel = vec![S::ZERO; n * k];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            panel[i * k + j] = v;
        }
    }
    forward_substitute_panel(bm, &mut panel, k);
    backward_substitute_panel(bm, &mut panel, k);
    (0..k).map(|j| (0..n).map(|i| panel[i * k + j]).collect()).collect()
}

/// Both sweeps over each column on its own.
fn single_sweeps<S: Scalar>(bm: &BlockMatrix<S>, cols: &[Vec<S>]) -> Vec<Vec<S>> {
    cols.iter()
        .map(|col| {
            let mut x = col.clone();
            forward_substitute(bm, &mut x);
            backward_substitute(bm, &mut x);
            x
        })
        .collect()
}

fn assert_same_bits<S: Scalar>(what: &str, got: &[Vec<S>], want: &[Vec<S>]) {
    assert_eq!(got.len(), want.len(), "{what}: column count");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(same_bits(g, w), "{what}: column {j} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Sweep level, both scalar widths: a panel sweep is the per-RHS
    /// sweeps of its columns.
    #[test]
    fn panel_sweeps_equal_per_rhs_sweeps_bitwise(
        which in 0usize..3,
        nb in 5usize..40,
        seed in 0u64..1000,
    ) {
        let a = matrix(which);
        let s = Solver::builder()
            .block_size(nb)
            .precision(Precision::MixedF32)
            .build(&a)
            .unwrap();
        let bm64 = s.factored();
        let bm32 = s.factored32().expect("well-conditioned generators stay mixed");
        for k in WIDTHS.into_iter().filter(|&k| k <= PANEL_WIDTH) {
            let cols = rhs_set(a.nrows(), k, seed);
            assert_same_bits("f64", &panel_sweeps(bm64, &cols), &single_sweeps(bm64, &cols));
            let cols32: Vec<Vec<f32>> =
                cols.iter().map(|c| c.iter().map(|&v| v as f32).collect()).collect();
            assert_same_bits("f32", &panel_sweeps(bm32, &cols32), &single_sweeps(bm32, &cols32));
        }
    }

    /// Solver level, f64 and mixed: `solve_multi` is the `solve` loop,
    /// across the panel cut at `PANEL_WIDTH`, lifetime counters included.
    #[test]
    fn solve_multi_equals_the_solve_loop_bitwise(
        which in 0usize..3,
        nb in 5usize..40,
        seed in 0u64..1000,
        mixed in 0usize..2,
    ) {
        let a = matrix(which);
        let precision = if mixed == 1 { Precision::MixedF32 } else { Precision::F64 };
        let build = || Solver::builder().block_size(nb).precision(precision).build(&a).unwrap();
        for k in WIDTHS {
            let bs = rhs_set(a.nrows(), k, seed);
            let (batched, looped) = (build(), build());
            let xs = batched.solve_multi(&bs).unwrap();
            let want: Vec<Vec<f64>> = bs.iter().map(|b| looped.solve(b).unwrap()).collect();
            assert_same_bits("solve_multi", &xs, &want);
            prop_assert_eq!(batched.precision_counters(), looped.precision_counters());
            if mixed == 1 {
                prop_assert_eq!(batched.precision_counters().refined_solves, k as u64);
            }
        }
    }
}

/// A column's bits do not depend on its neighbours: a NaN column and an
/// Inf column poison only themselves, and reordering or sub-setting the
/// right-hand sides moves whole columns without touching a bit.
#[test]
fn a_column_is_independent_of_its_panel() {
    let a = gen::circuit(150, 9);
    let n = a.nrows();
    for precision in [Precision::F64, Precision::MixedF32] {
        let s = Solver::builder().block_size(16).precision(precision).build(&a).unwrap();
        let clean = rhs_set(n, 9, 41);
        let alone: Vec<Vec<f64>> = clean.iter().map(|b| s.solve(b).unwrap()).collect();

        let mut hostile = clean.clone();
        hostile[2][n / 3] = f64::NAN;
        hostile[5][n / 2] = f64::INFINITY;
        let xs = s.solve_multi(&hostile).unwrap();
        for (j, x) in xs.iter().enumerate() {
            if j == 2 || j == 5 {
                assert!(
                    x.iter().any(|v| !v.is_finite()),
                    "{precision:?}: column {j} stays poisoned"
                );
                let own = s.solve(&hostile[j]).unwrap();
                assert!(same_bits(x, &own), "{precision:?}: column {j}");
            } else {
                assert!(same_bits(x, &alone[j]), "{precision:?}: NaN/Inf leaked into column {j}");
            }
        }

        let order = [8usize, 0, 6, 3, 1];
        let picked: Vec<Vec<f64>> = order.iter().map(|&j| clean[j].clone()).collect();
        let xs = s.solve_multi(&picked).unwrap();
        for (x, &j) in xs.iter().zip(&order) {
            assert!(same_bits(x, &alone[j]), "{precision:?}: column {j} moved with its panel");
        }
    }
}

/// The message-driven distributed solve keeps its per-RHS loop; batched
/// and looped answers agree to the residual (partials sum in arrival
/// order, so not to the bit).
#[test]
fn distributed_solve_multi_matches_its_loop_to_the_residual() {
    let a = gen::laplacian_2d(14, 13);
    let s = Solver::builder().ranks(4).block_size(12).distributed_solve(true).build(&a).unwrap();
    let bs: Vec<Vec<f64>> = (0..5).map(|j| gen::test_rhs(a.nrows(), 60 + j)).collect();
    let xs = s.solve_multi(&bs).unwrap();
    assert_eq!(xs.len(), bs.len());
    for (x, b) in xs.iter().zip(&bs) {
        assert!(relative_residual(&a, x, b).unwrap() < 1e-12);
        let y = s.solve(b).unwrap();
        let scale = y.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(x.iter().zip(&y).all(|(p, q)| (p - q).abs() <= 1e-11 * scale));
    }
}

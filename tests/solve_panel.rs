//! The panel triangular solve against its per-right-hand-side meaning.
//!
//! `Solver::solve_multi` sweeps the factor once per panel of right-hand
//! sides; its contract is that every column comes out **bit for bit** as
//! the single-RHS path computes it — whatever else shares the panel,
//! whatever the column holds (exact zeros of either sign, unit vectors),
//! in f64 and in f32, in debug and in release builds (the
//! `solve` CI stage runs this file under both).
//!
//! Every execution mode solves with those same sweeps over factors that
//! are bitwise equal across executors, so a solver's answers are also
//! the 1-rank solver's bit for bit, whatever its ranks or shared
//! threads.

use proptest::prelude::*;

use pangulu::core::trisolve::{
    backward_substitute, backward_substitute_panel, forward_substitute, forward_substitute_panel,
    PANEL_WIDTH,
};
use pangulu::core::BlockMatrix;
use pangulu::prelude::*;
use pangulu::sparse::ops::relative_residual;
use pangulu::sparse::{gen, Scalar, SparseError};

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

/// One draw of the execution options: `exec` 0..4 is 1..=4 ranks,
/// 4..6 the shared executor with 2 or 3 threads.
fn execution(exec: usize) -> SolverBuilder {
    match exec {
        0..4 => Solver::builder().ranks(exec + 1),
        _ => Solver::builder().shared_threads(exec - 2),
    }
}

/// `solve`, `solve_transpose` and `solve_multi` at 1, 3 and 33
/// right-hand sides (two panels) of `s`, bit for bit against `reference`.
fn assert_solves_match(what: &str, s: &Solver, reference: &Solver, seed: u64) {
    let b = gen::test_rhs(s.n(), seed);
    assert!(same_bits(&s.solve(&b).unwrap(), &reference.solve(&b).unwrap()), "{what}: solve");
    assert!(
        same_bits(&s.solve_transpose(&b).unwrap(), &reference.solve_transpose(&b).unwrap()),
        "{what}: solve_transpose"
    );
    for k in [1, 3, 33] {
        let bs = rhs_set(s.n(), k, seed);
        let got = s.solve_multi(&bs).unwrap();
        assert_same_bits(
            &format!("{what}: solve_multi k={k}"),
            &got,
            &reference.solve_multi(&bs).unwrap(),
        );
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

    /// Execution options change no bit of any solve, in f64 and mixed
    /// precision: at a fixed block size every solve equals the 1-rank
    /// solver's. The same draws at a random block size, from 1 to past
    /// the matrix order, solve without panicking and hold the same
    /// equality.
    #[test]
    fn every_execution_mode_solves_bitwise_like_one_rank(
        which in 0usize..3,
        exec in 0usize..6,
        mixed in 0usize..2,
        nb_random in 1usize..140,
        seed in 0u64..1000,
    ) {
        let a = matrix(which);
        let precision = if mixed == 1 { Precision::MixedF32 } else { Precision::F64 };
        for nb in [12, nb_random] {
            let what = format!("matrix {which}, nb {nb}, exec {exec}, {precision:?}");
            let s = execution(exec)
                .precision(precision)
                .block_size(nb)
                .build(&a)
                .unwrap();
            let one = Solver::builder().precision(precision).block_size(nb).build(&a).unwrap();
            assert_solves_match(&what, &s, &one, seed);
        }
    }
}

/// A column's bits do not depend on its neighbours: reordering or
/// sub-setting the right-hand sides moves whole columns without touching
/// a bit. A NaN or Inf column is refused by name before any column is
/// solved, so it cannot poison its neighbours either.
#[test]
fn a_column_is_independent_of_its_panel() {
    let a = gen::circuit(150, 9);
    let n = a.nrows();
    for precision in [Precision::F64, Precision::MixedF32] {
        let s = Solver::builder().block_size(16).precision(precision).build(&a).unwrap();
        let clean = rhs_set(n, 9, 41);
        let alone: Vec<Vec<f64>> = clean.iter().map(|b| s.solve(b).unwrap()).collect();

        let mut hostile = clean.clone();
        hostile[5][n / 2] = f64::INFINITY;
        let want = SparseError::NonFinite { row: n / 2, col: 5 };
        assert_eq!(s.solve_multi(&hostile), Err(want), "{precision:?}");
        hostile[2][n / 3] = f64::NAN;
        let want = SparseError::NonFinite { row: n / 3, col: 2 };
        assert_eq!(s.solve_multi(&hostile), Err(want), "{precision:?}");

        let order = [8usize, 0, 6, 3, 1];
        let picked: Vec<Vec<f64>> = order.iter().map(|&j| clean[j].clone()).collect();
        let xs = s.solve_multi(&picked).unwrap();
        for (x, &j) in xs.iter().zip(&order) {
            assert!(same_bits(x, &alone[j]), "{precision:?}: column {j} moved with its panel");
        }
    }
}

/// A multi-rank solver solves with the same panel sweeps as a 1-rank
/// one: its batched answers are its looped answers, and both are the
/// 1-rank solver's, bit for bit.
#[test]
fn multi_rank_solve_multi_equals_its_loop_bitwise() {
    let a = gen::laplacian_2d(14, 13);
    let s = Solver::builder().ranks(4).block_size(12).build(&a).unwrap();
    let one = Solver::builder().block_size(12).build(&a).unwrap();
    let bs: Vec<Vec<f64>> = (0..5).map(|j| gen::test_rhs(a.nrows(), 60 + j)).collect();
    let xs = s.solve_multi(&bs).unwrap();
    assert_eq!(xs.len(), bs.len());
    for (x, b) in xs.iter().zip(&bs) {
        assert!(relative_residual(&a, x, b).unwrap() < 1e-12);
        assert!(same_bits(x, &s.solve(b).unwrap()), "batched vs looped");
        assert!(same_bits(x, &one.solve(b).unwrap()), "4 ranks vs 1 rank");
    }
}

//! A correctness oracle that is not the solver: a dense LU with partial
//! pivoting, written here, solves each structure class of the paper's
//! corpus with a planted solution, and every execution mode, precision and
//! fill-reducing ordering of the solver must agree with it. The bitwise
//! tests compare the solver with itself, so they cannot see an error every
//! path shares — in scaling, permutation, symbolic fill or the sweeps.
//! This test can.

use pangulu::prelude::*;
use pangulu::reorder::FillReducing;
use pangulu::sparse::ops::spmv;
use pangulu::sparse::{gen, CscMatrix};

/// Solves `A x = b` by Gaussian elimination with partial pivoting on a
/// dense row-major copy of `a`.
fn dense_solve(a: &CscMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut m = vec![0.0; n * n];
    for (i, j, v) in a.iter() {
        m[i * n + j] = v;
    }
    let mut x = b.to_vec();
    for k in 0..n {
        let p = (k..n)
            .max_by(|&r, &s| m[r * n + k].abs().total_cmp(&m[s * n + k].abs()))
            .expect("k < n");
        assert!(m[p * n + k] != 0.0, "dense oracle: singular at column {k}");
        if p != k {
            for j in 0..n {
                m.swap(k * n + j, p * n + j);
            }
            x.swap(k, p);
        }
        let pivot = m[k * n + k];
        for r in k + 1..n {
            let l = m[r * n + k] / pivot;
            if l != 0.0 {
                for j in k + 1..n {
                    m[r * n + j] -= l * m[k * n + j];
                }
                x[r] -= l * x[k];
            }
        }
    }
    for k in (0..n).rev() {
        let s: f64 = (k + 1..n).map(|j| m[k * n + j] * x[j]).sum();
        x[k] = (x[k] - s) / m[k * n + k];
    }
    x
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
}

/// `‖A‖∞`: the largest absolute row sum.
fn matrix_norm_inf(a: &CscMatrix) -> f64 {
    let mut rows = vec![0.0; a.nrows()];
    for (i, _, v) in a.iter() {
        rows[i] += v.abs();
    }
    norm_inf(&rows)
}

/// The normwise backward error `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
fn backward_error(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = spmv(a, x).unwrap();
    let r: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
    norm_inf(&r) / (matrix_norm_inf(a) * norm_inf(x) + norm_inf(b))
}

/// One generator per structure class of `gen::PAPER_MATRICES`, at n ≤ 300.
fn corpus() -> Vec<(&'static str, CscMatrix)> {
    vec![
        ("grid2d", gen::laplacian_2d(17, 17)),
        ("circuit", gen::circuit(300, 680)),
        ("fem_blocked", gen::fem_blocked(33, 9, 2, 11)),
        ("dense_banded", gen::dense_banded(300, 45, 0.55, 41)),
        ("kkt", gen::kkt(200, 90, 80)),
        ("cage", gen::cage_like(300, 12)),
    ]
}

/// `c` in the backward-error bound `c·n·ε`.
const C: f64 = 4.0;

/// The default best-of-four choice, then AMD and nested dissection each
/// forced: an error in one ordering's permutation must not hide behind
/// another ordering winning under `Auto`.
const ORDERINGS: [FillReducing; 3] =
    [FillReducing::Auto, FillReducing::Amd, FillReducing::NestedDissection];

#[test]
fn every_mode_agrees_with_a_dense_pivoted_lu() {
    let modes = [
        ("1 rank", Solver::builder()),
        ("shared_threads(2)", Solver::builder().shared_threads(2)),
        ("ranks(2)", Solver::builder().ranks(2)),
        ("ranks(4)", Solver::builder().ranks(4)),
    ];
    for (class, a) in corpus() {
        let n = a.nrows();
        assert!(n <= 300 && n == a.ncols(), "{class}: n = {n}");
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 13) as f64 / 13.0).collect();
        let b = spmv(&a, &x_true).unwrap();
        let x_dense = dense_solve(&a, &b);
        let bound = C * n as f64 * f64::EPSILON;
        assert!(backward_error(&a, &x_dense, &b) <= bound, "{class}: the dense oracle itself");
        for (mode, builder) in &modes {
            for ordering in ORDERINGS {
                for precision in [Precision::F64, Precision::MixedF32] {
                    let tag = format!("{class} {mode} {ordering:?} {precision:?}");
                    let solver = builder
                        .clone()
                        .fill_reducing(ordering)
                        .precision(precision)
                        .build(&a)
                        .unwrap();
                    let x = solver.solve(&b).unwrap();
                    let eta = backward_error(&a, &x, &b);
                    assert!(eta <= bound, "{tag}: backward error {eta:.2e} > {bound:.2e}");
                    let kappa = solver.condest(&a).unwrap();
                    let diff: Vec<f64> = x.iter().zip(&x_dense).map(|(p, q)| p - q).collect();
                    let fwd = norm_inf(&diff) / norm_inf(&x_dense);
                    assert!(
                        fwd <= kappa * bound,
                        "{tag}: differs from the dense solution by {fwd:.2e} > condest {kappa:.2e} × {bound:.2e}"
                    );
                }
            }
        }
    }
}

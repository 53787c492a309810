//! End-to-end pipeline tests over the paper's matrix suite analogs:
//! factor, solve, check residuals; sequential and distributed runs must
//! produce the same factors.

use pangulu::prelude::*;
use pangulu::sparse::gen::{self, PAPER_MATRICES};
use pangulu::sparse::ops::relative_residual;

/// Small but structurally faithful instances of each generator class,
/// sized for debug-mode test runs.
fn small_suite() -> Vec<(&'static str, pangulu::sparse::CscMatrix)> {
    vec![
        ("grid2d", gen::laplacian_2d(18, 17)),
        ("grid3d", gen::laplacian_3d(7, 6, 6)),
        ("circuit", gen::circuit(350, 7)),
        ("fem", gen::fem_blocked(60, 5, 2, 11)),
        ("banded", gen::dense_banded(220, 14, 0.5, 3)),
        ("kkt", gen::kkt(260, 110, 5)),
        ("cage", gen::cage_like(280, 9)),
    ]
}

#[test]
fn factor_and_solve_every_structure_class() {
    for (name, a) in small_suite() {
        let solver = Solver::factor(&a).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = gen::test_rhs(a.nrows(), 1);
        let x = solver.solve(&b).unwrap();
        let r = relative_residual(&a, &x, &b).unwrap();
        assert!(r < 1e-8, "{name}: residual {r}");
    }
}

#[test]
fn distributed_factor_matches_sequential() {
    for (name, a) in small_suite() {
        let b = gen::test_rhs(a.nrows(), 2);
        let seq = Solver::builder().ranks(1).build(&a).unwrap();
        let dist = Solver::builder().ranks(4).build(&a).unwrap();
        let xs = seq.solve(&b).unwrap();
        let xd = dist.solve(&b).unwrap();
        let diff = xs.iter().zip(&xd).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
        let scale = xs.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        assert!(diff / scale < 1e-10, "{name}: solutions differ by {diff}");
    }
}

#[test]
fn paper_matrix_registry_is_complete() {
    assert_eq!(PAPER_MATRICES.len(), 16);
    // Spot-check generation of the three main structure classes at the
    // default scale; `full_paper_suite` below factors all sixteen.
    for name in ["ecology1", "ASIC_680k", "audikw_1"] {
        let a = gen::paper_matrix(name, 1);
        assert!(a.nrows() > 500, "{name} too small");
    }
}

/// The full 16-matrix suite end to end (~8s in debug builds).
#[test]
fn full_paper_suite() {
    for pm in PAPER_MATRICES {
        let a = gen::paper_matrix(pm.name, 1);
        let solver = Solver::builder().ranks(4).build(&a).unwrap();
        let b = gen::test_rhs(a.nrows(), 7);
        let x = solver.solve(&b).unwrap();
        let r = relative_residual(&a, &x, &b).unwrap();
        assert!(r < 1e-7, "{}: residual {r}", pm.name);
    }
}

//! Boundary-condition tests across the stack: degenerate shapes, extreme
//! block sizes, rank counts exceeding the block grid, and tiny systems
//! through every executor.

use pangulu::comm::ProcessGrid;
use pangulu::prelude::*;
use pangulu::sparse::ops::relative_residual;
use pangulu::sparse::{gen, SparseError};

#[test]
fn two_by_two_system_through_every_executor() {
    let a = pangulu::sparse::CscMatrix::from_parts(
        2,
        2,
        vec![0, 2, 4],
        vec![0, 1, 0, 1],
        vec![4.0, 1.0, 1.0, 3.0],
    )
    .unwrap();
    let b = vec![9.0, 7.0];
    for ranks in [1usize, 2, 4] {
        let x = Solver::builder().ranks(ranks).build(&a).unwrap().solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b).unwrap() < 1e-14, "ranks {ranks}");
    }
    let x = Solver::builder().shared_threads(2).build(&a).unwrap().solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-14);
}

#[test]
fn block_size_larger_than_matrix() {
    let a = gen::laplacian_2d(5, 5);
    let solver = Solver::builder().block_size(1000).ranks(3).build(&a).unwrap();
    assert_eq!(solver.stats().nblk, 1);
    let b = gen::test_rhs(25, 1);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-12);
}

#[test]
fn more_ranks_than_blocks() {
    // 2x2 block grid, 8 ranks: most ranks own nothing and must exit
    // cleanly in both the factorisation and the distributed solve.
    let a = gen::cage_like(60, 5);
    let solver = Solver::builder().block_size(30).ranks(8).build(&a).unwrap();
    let b = gen::test_rhs(60, 2);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-10);
}

#[test]
fn grid_shapes_cover_prime_rank_counts() {
    for p in [1usize, 2, 3, 5, 7, 11, 13] {
        let g = ProcessGrid::new(p);
        assert_eq!(g.size(), p);
        // Every rank must own at least one (bi, bj) residue class.
        let mut seen = vec![false; p];
        for bi in 0..g.pr() {
            for bj in 0..g.pc() {
                seen[g.owner(bi, bj)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "p={p}");
    }
}

#[test]
fn many_ranks_and_tiny_blocks() {
    let a = gen::laplacian_2d(9, 9);
    let solver = Solver::builder().block_size(5).ranks(6).build(&a).unwrap();
    let b = gen::test_rhs(81, 6);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-11);
}

#[test]
fn dense_matrix_as_worst_case_input() {
    // Fully dense "sparse" matrix: every stage must still work.
    let a = gen::random_sparse(40, 1.0, 9);
    let solver = Solver::builder().ranks(2).build(&a).unwrap();
    assert_eq!(solver.stats().symbolic.unwrap().nnz_lu, 40 * 40);
    let b = gen::test_rhs(40, 3);
    let x = solver.solve(&b).unwrap();
    assert!(relative_residual(&a, &x, &b).unwrap() < 1e-10);
}

#[test]
fn non_finite_right_hand_sides_are_rejected_in_every_precision() {
    let a = gen::laplacian_2d(8, 8);
    let n = a.nrows();
    for precision in [Precision::F64, Precision::MixedF32] {
        let solver = Solver::builder().precision(precision).build(&a).unwrap();
        assert_eq!(solver.effective_precision(), precision);
        let before = solver.precision_counters();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = gen::test_rhs(n, 5);
            b[17] = bad;
            let want = SparseError::NonFinite { row: 17, col: 0 };
            assert_eq!(solver.solve(&b), Err(want.clone()), "{precision:?} {bad}");
            assert_eq!(solver.solve_transpose(&b), Err(want.clone()), "{precision:?} {bad}");
            assert_eq!(solver.solve_refined(&a, &b, 1e-14, 3).map(|_| ()), Err(want));
            // Past the first panel, the error names the right-hand side and
            // no panel is solved.
            let mut bs = vec![gen::test_rhs(n, 6); 40];
            bs[35] = b;
            let got = solver.solve_multi(&bs);
            assert_eq!(got, Err(SparseError::NonFinite { row: 17, col: 35 }), "{precision:?}");
        }
        assert_eq!(solver.precision_counters(), before, "{precision:?}: counters moved");
    }
}

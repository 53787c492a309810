//! The distributed triangular solve under adversarial fault injection.
//!
//! `solve_distributed_on` runs both dependency-counted sweeps
//! with every inter-rank message passing through a seeded
//! [`FaultPlan::adversarial`] schedule (delays, reordering, droppable
//! sends with a retry budget large enough that delivery is eventual).
//! Unlike the factorisation, the sweeps apply partial contributions in
//! arrival order (the module's documented "no global ordering" design),
//! so the result matches the sequential sweeps only up to summation
//! rounding: agreement is asserted to near machine precision, and every
//! faulted solution must still solve the original system — for every
//! seed, on square and non-square grids.

use pangulu::comm::{FaultPlan, ProcessGrid, TransportKind};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig};
use pangulu::core::dist_solve::solve_distributed_on;
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::trisolve::{backward_substitute, forward_substitute};
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::{ensure_diagonal, relative_residual};
use pangulu::sparse::CscMatrix;

/// A factored block matrix plus everything needed to check a solve.
struct Factored {
    a: CscMatrix,
    bm: BlockMatrix,
    tg: TaskGraph,
}

fn factored(seed: u64) -> Factored {
    let a = ensure_diagonal(&gen::random_sparse(72, 0.11, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let mut bm = BlockMatrix::from_filled(&f, 8).unwrap();
    let tg = TaskGraph::build(&bm);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(2, 2), &tg);
    factor_distributed_checked(&mut bm, &tg, &owners, &sel, 1e-12, &FactorConfig::default())
        .expect("factorisation");
    Factored { a, bm, tg }
}

fn sequential_solve(bm: &BlockMatrix, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    forward_substitute(bm, &mut x);
    backward_substitute(bm, &mut x);
    x
}

/// Componentwise agreement to near machine precision, scaled by the
/// reference's magnitude (partials sum in arrival order, so the last few
/// ulps may differ from the sequential sweeps).
fn assert_close(x: &[f64], reference: &[f64], ctx: &str) {
    let scale = reference.iter().map(|v| v.abs()).fold(1e-300, f64::max);
    for (i, (got, want)) in x.iter().zip(reference).enumerate() {
        assert!(
            (got - want).abs() / scale < 1e-12,
            "{ctx}: component {i} diverged: {got} vs {want}"
        );
    }
}

/// Ten adversarial seeds on a 2x2 grid: each faulted distributed solve
/// agrees with the sequential sweeps and actually solves the system.
#[test]
fn adversarial_faults_do_not_change_the_solution() {
    let f = factored(31);
    let owners = OwnerMap::balanced(&f.bm, ProcessGrid::with_shape(2, 2), &f.tg);
    let b = gen::test_rhs(f.bm.n(), 17);
    let reference = sequential_solve(&f.bm, &b);
    let resid = relative_residual(&f.a, &reference, &b).unwrap();
    assert!(resid < 1e-8, "sequential reference residual {resid}");
    for seed in 0..10u64 {
        let plan = FaultPlan::adversarial(seed);
        let x = solve_distributed_on(&f.bm, &owners, &b, TransportKind, Some(&plan));
        assert_close(&x, &reference, &format!("seed {seed}"));
        let r = relative_residual(&f.a, &x, &b).unwrap();
        assert!(r < 1e-8, "seed {seed}: faulted solve residual {r}");
    }
}

/// The fault path is also exercised across grid shapes (including ranks
/// that own no blocks of some sweep), with a fresh rhs per seed.
#[test]
fn adversarial_faults_across_grid_shapes() {
    let f = factored(32);
    for (pr, pc) in [(1usize, 2usize), (2, 2), (3, 2)] {
        let owners = OwnerMap::balanced(&f.bm, ProcessGrid::with_shape(pr, pc), &f.tg);
        for seed in [3u64, 11, 27] {
            let b = gen::test_rhs(f.bm.n(), 100 + seed);
            let reference = sequential_solve(&f.bm, &b);
            let plan = FaultPlan::adversarial(seed);
            let x = solve_distributed_on(&f.bm, &owners, &b, TransportKind, Some(&plan));
            assert_close(&x, &reference, &format!("{pr}x{pc} seed {seed}"));
        }
    }
}

/// With no fault plan the solve agrees with the sequential sweeps.
#[test]
fn fault_free_path_is_unchanged() {
    let f = factored(33);
    let owners = OwnerMap::balanced(&f.bm, ProcessGrid::with_shape(2, 2), &f.tg);
    let b = gen::test_rhs(f.bm.n(), 5);
    let reference = sequential_solve(&f.bm, &b);
    let x = solve_distributed_on(&f.bm, &owners, &b, TransportKind, None);
    assert_close(&x, &reference, "no plan");
}

//! The distributed-solve entry point of the repository benchmark's
//! pipeline copy. Phase 5 has one algorithm: the panel sweeps of
//! [`crate::trisolve`], which every [`crate::Solver`] mode runs and which
//! give the 1-rank bits whatever the grid. This function runs those
//! sweeps; it stays only because `benchmark/src/pipeline.rs` calls it,
//! and goes with that caller.

use pangulu_comm::{FaultPlan, TransportKind};
use pangulu_sparse::Scalar;

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;
use crate::trisolve::{backward_substitute, forward_substitute};

/// Solves `L U x = b` on the factored tiles `bm` with
/// [`forward_substitute`] and [`backward_substitute`] on a copy of `b`,
/// so `x` is bitwise the 1-rank solve. `_owners`, `_transport` and
/// `_fault` are accepted and ignored: the signature is the benchmark
/// pipeline's, and this function goes with that caller. Returns `x`.
pub fn solve_distributed_on<S: Scalar>(
    bm: &BlockMatrix<S>,
    _owners: &OwnerMap,
    b: &[S],
    _transport: TransportKind,
    _fault: Option<&FaultPlan>,
) -> Vec<S> {
    assert_eq!(b.len(), bm.n(), "rhs length must match matrix order");
    let mut x = b.to_vec();
    forward_substitute(bm, &mut x);
    backward_substitute(bm, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
    use crate::task::TaskGraph;
    use pangulu_comm::ProcessGrid;
    use pangulu_kernels::select::{KernelSelector, Thresholds};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_sparse::CscMatrix;
    use pangulu_symbolic::symbolic_fill;

    fn factored(a: &CscMatrix, nb: usize, pivot_floor: f64) -> (BlockMatrix, TaskGraph) {
        let f = symbolic_fill(a).unwrap().filled_matrix(a).unwrap();
        let mut bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        factor_sequential(&mut bm, &tg, &sel, pivot_floor);
        (bm, tg)
    }

    fn sweeps(bm: &BlockMatrix, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        forward_substitute(bm, &mut x);
        backward_substitute(bm, &mut x);
        x
    }

    /// On 1–6 ranks, under the block-cyclic and the balanced owner map,
    /// the result is bitwise the panel sweeps' — also when the whole
    /// matrix is one block.
    #[test]
    fn equals_the_sweeps_bitwise_on_every_grid_and_owner_map() {
        let cases = [
            (ensure_diagonal(&gen::random_sparse(60, 0.1, 1)).unwrap(), 8, 0.0, 1),
            (ensure_diagonal(&gen::random_sparse(60, 0.1, 3)).unwrap(), 8, 0.0, 3),
            (ensure_diagonal(&gen::circuit(200, 7)).unwrap(), 12, 1e-12, 9),
            (ensure_diagonal(&gen::random_sparse(12, 0.3, 3)).unwrap(), 12, 0.0, 4),
        ];
        for (a, nb, pivot_floor, seed) in cases {
            let (bm, tg) = factored(&a, nb, pivot_floor);
            let b = gen::test_rhs(a.nrows(), seed);
            let want = sweeps(&bm, &b);
            let plan = FaultPlan::adversarial(seed);
            for p in 1..=6 {
                let grid = ProcessGrid::new(p);
                for owners in
                    [OwnerMap::block_cyclic(&bm, grid), OwnerMap::balanced(&bm, grid, &tg)]
                {
                    let got = solve_distributed_on(&bm, &owners, &b, TransportKind, None);
                    let faulted =
                        solve_distributed_on(&bm, &owners, &b, TransportKind, Some(&plan));
                    for x in [got, faulted] {
                        assert!(
                            x.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                            "n={} p={p}: solve differs from the sweeps",
                            a.nrows()
                        );
                    }
                }
            }
        }
    }
}

//! Task granularity of the default analysis path.
//!
//! The regular `nb × nb` grid only produces coarse tasks when the columns
//! of one elimination subtree sit next to each other, which is what the
//! assembly-tree postorder at the end of AMD / ND provides
//! (docs/ALGORITHM.md §1). These are ratchets: a later change to the
//! ordering that silently re-scatters the grid fails here, in a debug
//! build, before any benchmark runs.

use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::tile::is_full;
use pangulu::prelude::*;
use pangulu::reorder::{amd, fill_reducing_ordering, reorder_for_lu, FillReducing};
use pangulu::sparse::ops::{ensure_diagonal, symmetrize};
use pangulu::sparse::permute::permute_symmetric;
use pangulu::sparse::{gen, Permutation};
use pangulu::symbolic::etree::{EliminationTree, NO_PARENT};
use pangulu::symbolic::symbolic_fill;

/// Blocks and tasks of `a` once reordered, filled and cut at `nb`.
fn blocked(a: &CscMatrix, nb: Option<usize>) -> (BlockMatrix, TaskGraph) {
    let fill = symbolic_fill(a).unwrap();
    let nb = nb.unwrap_or_else(|| BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), 1));
    let bm = BlockMatrix::from_filled(&fill.filled_matrix(a).unwrap(), nb).unwrap();
    let tg = TaskGraph::build(&bm);
    (bm, tg)
}

/// The default path — `Auto` ordering, heuristic block size — keeps the
/// two launch-bound shapes coarse: without the postorder they cut into
/// 33 462 and 12 386 tasks.
#[test]
fn default_path_task_counts_stay_coarse() {
    for (name, a, ceiling) in [
        // 1 218 measured (1 416 before AMD set the 30 hubs aside).
        ("circuit(6000)", gen::circuit(6000, 1), 1_500),
        ("laplacian_2d(64,64)", gen::laplacian_2d(64, 64), 1_500),
    ] {
        let r = reorder_for_lu(&a, FillReducing::Auto).unwrap();
        let (bm, tg) = blocked(&r.matrix, None);
        let tasks = tg.num_tasks(bm.num_blocks());
        assert!(tasks <= ceiling, "{name}: {tasks} tasks in {} blocks", bm.num_blocks());
        // The solver's own analysis is this path.
        let solver = Solver::builder().build(&a).unwrap();
        assert_eq!(solver.stats().num_blocks, bm.num_blocks(), "{name}");
    }
}

/// Postorder of `tree` visiting the child with the largest subtree first.
fn largest_first_postorder(tree: &EliminationTree) -> Vec<usize> {
    let n = tree.len();
    let mut size = vec![1usize; n];
    for v in 0..n {
        if tree.parent(v) != NO_PARENT {
            size[tree.parent(v)] += size[v]; // parents follow their children
        }
    }
    let mut children = tree.children();
    for ch in &mut children {
        ch.sort_by_key(|&c| std::cmp::Reverse(size[c]));
    }
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in (0..n).filter(|&v| tree.parent(v) == NO_PARENT) {
        stack.push((root, 0));
        while let Some((v, next)) = stack.last_mut() {
            if let Some(&c) = children[*v].get(*next) {
                *next += 1;
                stack.push((c, 0));
            } else {
                order.push(*v);
                stack.pop();
            }
        }
    }
    order
}

/// Child order is not free: the shipped postorder (children in ascending
/// pivot position, so the child eliminated last sits before its parent)
/// keeps kkt's dense trailing fronts together; visiting the largest
/// subtree first wedges every small subtree between them and the root.
#[test]
fn ascending_child_order_beats_largest_subtree_first() {
    let a = ensure_diagonal(&gen::kkt(600, 280, 1)).unwrap();
    let sym = symmetrize(&a).unwrap();
    let shipped = fill_reducing_ordering(&sym, FillReducing::Amd).unwrap();
    let raw = amd::amd_order(&sym).unwrap();
    let tree = EliminationTree::from_permuted_pattern(sym.col_ptr(), sym.row_idx(), &raw).unwrap();
    let largest_first = Permutation::from_vec(
        largest_first_postorder(&tree).into_iter().map(|v| raw.old_of(v)).collect(),
    )
    .unwrap();

    let census = |perm: &Permutation| {
        let (bm, tg) = blocked(&permute_symmetric(&a, perm).unwrap(), Some(40));
        let full = (0..bm.num_blocks()).filter(|&id| is_full(bm.block(id))).count();
        let on_full: f64 = (tg.ssssm.iter().zip(&tg.ssssm_flops))
            .filter(|(&(i, j, _), _)| is_full(bm.block(bm.block_id(i, j).unwrap())))
            .map(|(_, fl)| fl)
            .sum();
        (full, tg.num_tasks(bm.num_blocks()), on_full / tg.total_flops())
    };
    // Measured: 36 full blocks carrying 79 % of the FLOPs against 4
    // carrying 18 % (1 297 against 1 906 tasks) — at full scale, 4× the
    // numeric time.
    let (ours, theirs) = (census(&shipped), census(&largest_first));
    assert!(ours.0 >= 4 * theirs.0, "full blocks: {ours:?} against {theirs:?}");
    assert!(ours.2 >= 2.0 * theirs.2, "FLOP share on full targets: {ours:?} against {theirs:?}");
    assert!(ours.1 < theirs.1, "tasks: {ours:?} against {theirs:?}");
}

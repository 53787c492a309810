//! Property tests for the analysis-time critical-path priorities
//! (proptest): on random factorisable matrices, the one-sweep
//! `TaskPriorities::compute` must equal an independent longest-path DP
//! over the explicit task DAG — bit for bit, under *any* topological
//! processing order — and every task's priority must strictly exceed
//! each of its successors'. No ready queue orders by these priorities;
//! the suite stays exactly as long as `TaskPriorities` does (the
//! benchmark pipeline still times a call to it, see its doc comment).

use proptest::prelude::*;

use pangulu::core::task::{TaskGraph, TaskPriorities};
use pangulu::core::BlockMatrix;
use pangulu::kernels::flops::TASK_LAUNCH_COST;
use pangulu::sparse::{CooMatrix, CscMatrix};

/// A random square, diagonally dominant matrix (factorable without
/// pivoting trouble) described by a seedable entry list.
fn dd_matrix(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0f64; n];
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            coo.push(i, j, v).unwrap();
            row_sum[i] += v.abs();
        }
    }
    for (i, &rs) in row_sum.iter().enumerate() {
        coo.push(i, i, rs + 1.0).unwrap();
    }
    coo.to_csc()
}

fn analyse(a: &CscMatrix, nb: usize) -> (BlockMatrix, TaskGraph) {
    let f = pangulu::symbolic::symbolic_fill(a).unwrap().filled_matrix(a).unwrap();
    let bm = BlockMatrix::from_filled(&f, nb).unwrap();
    let tg = TaskGraph::build(&bm);
    (bm, tg)
}

/// Sorted elimination steps of the SSSSM updates targeting block `cid`,
/// with their indices into [`TaskGraph::ssssm`]: the ascending-k
/// reduction chain the executors walk with their per-target cursor,
/// rebuilt here by a linear scan independent of the executors' tables.
fn update_chain(bm: &BlockMatrix, tg: &TaskGraph, cid: usize) -> Vec<(usize, usize)> {
    let (bi, bj) = bm.block_coords(cid);
    let mut chain: Vec<(usize, usize)> = tg
        .ssssm
        .iter()
        .enumerate()
        .filter(|(_, &(i, j, _))| i == bi && j == bj)
        .map(|(gid, &(_, _, k))| (k, gid))
        .collect();
    chain.sort_unstable();
    chain
}

/// The explicit task DAG the priorities are defined over. Node ids:
/// `0..num_blocks` are panel operations (by block id), `num_blocks + gid`
/// are the SSSSM updates (by triple index).
struct TaskDag {
    weight: Vec<f64>,
    succ: Vec<Vec<usize>>,
    npanels: usize,
}

fn task_dag(bm: &BlockMatrix, tg: &TaskGraph) -> TaskDag {
    let npanels = bm.num_blocks();
    let nn = npanels + tg.ssssm.len();
    let mut weight = vec![0.0f64; nn];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nn];
    for (id, w) in weight.iter_mut().take(npanels).enumerate() {
        *w = tg.panel_flops[id] + TASK_LAUNCH_COST;
    }
    for gid in 0..tg.ssssm.len() {
        weight[npanels + gid] = tg.ssssm_flops[gid] + TASK_LAUNCH_COST;
    }
    // GETRF(k) gates both panels of its step.
    for k in 0..tg.nblk {
        let d = bm.block_id(k, k).expect("diag exists");
        for &j in &tg.u_panels[k] {
            succ[d].push(bm.block_id(k, j).unwrap());
        }
        for &i in &tg.l_panels[k] {
            succ[d].push(bm.block_id(i, k).unwrap());
        }
    }
    // Each finished panel feeds its SSSSM updates.
    for (gid, &(i, j, k)) in tg.ssssm.iter().enumerate() {
        succ[bm.block_id(i, k).unwrap()].push(npanels + gid);
        succ[bm.block_id(k, j).unwrap()].push(npanels + gid);
    }
    // Updates of one target form the serialised ascending-k chain; the
    // last chain link releases the target's panel operation.
    for cid in 0..npanels {
        let chain = update_chain(bm, tg, cid);
        for w in chain.windows(2) {
            succ[npanels + w[0].1].push(npanels + w[1].1);
        }
        if let Some(&(_, last_gid)) = chain.last() {
            succ[npanels + last_gid].push(cid);
        }
    }
    TaskDag { weight, succ, npanels }
}

/// Reference longest-path-to-sink DP: Kahn's algorithm with a seeded
/// shuffle of the frontier picks one of the DAG's many topological
/// orders, and the lengths are folded in its reverse. Any valid order
/// must produce the same lengths.
fn reference_longest_path(dag: &TaskDag, shuffle_seed: u64) -> Vec<f64> {
    let nn = dag.weight.len();
    let mut indeg = vec![0usize; nn];
    for vs in &dag.succ {
        for &v in vs {
            indeg[v] += 1;
        }
    }
    let mut frontier: Vec<usize> = (0..nn).filter(|&u| indeg[u] == 0).collect();
    let mut order = Vec::with_capacity(nn);
    let mut state = shuffle_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    while !frontier.is_empty() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % frontier.len();
        let u = frontier.swap_remove(pick);
        order.push(u);
        for &v in &dag.succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                frontier.push(v);
            }
        }
    }
    assert_eq!(order.len(), nn, "task DAG has a cycle");
    let mut len = vec![0.0f64; nn];
    for &u in order.iter().rev() {
        let best = dag.succ[u].iter().map(|&v| len[v]).fold(0.0f64, f64::max);
        len[u] = dag.weight[u] + best;
    }
    len
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle's chains are strictly ascending in k and one per
    /// dependency counter: a target's chain length is its indegree.
    #[test]
    fn update_chain_is_sorted_and_covers_indegree(
        n in 8usize..48,
        nb in 4usize..10,
        entries in proptest::collection::vec(
            (0usize..64, 0usize..64, -2.0f64..2.0), 1..140),
    ) {
        let a = dd_matrix(n, &entries);
        let (bm, tg) = analyse(&a, nb);
        for cid in 0..bm.num_blocks() {
            let chain = update_chain(&bm, &tg, cid);
            prop_assert_eq!(chain.len(), tg.indegree[cid]);
            for w in chain.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "chain steps must strictly ascend");
            }
        }
    }

    /// The cached priorities are exactly the longest-path DP over the
    /// explicit DAG — same additions, same maxima, bit for bit.
    #[test]
    fn priorities_equal_reference_longest_path(
        n in 8usize..48,
        nb in 4usize..10,
        entries in proptest::collection::vec(
            (0usize..64, 0usize..64, -2.0f64..2.0), 1..140),
    ) {
        let a = dd_matrix(n, &entries);
        let (bm, tg) = analyse(&a, nb);
        let pr = TaskPriorities::compute(&bm, &tg);
        let dag = task_dag(&bm, &tg);
        let reference = reference_longest_path(&dag, 0);
        for (id, (got, want)) in pr.panel.iter().zip(&reference).enumerate() {
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "panel {}: {} vs reference {}", id, got, want);
        }
        for (gid, (got, want)) in pr.ssssm.iter().zip(&reference[dag.npanels..]).enumerate() {
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "update {}: {} vs reference {}", gid, got, want);
        }
    }

    /// The longest-path lengths are a property of the DAG, not of the
    /// order it is traversed in: shuffled topological orders all agree.
    #[test]
    fn priorities_invariant_under_topological_permutations(
        n in 8usize..40,
        nb in 4usize..9,
        entries in proptest::collection::vec(
            (0usize..64, 0usize..64, -2.0f64..2.0), 1..120),
    ) {
        let a = dd_matrix(n, &entries);
        let (bm, tg) = analyse(&a, nb);
        let dag = task_dag(&bm, &tg);
        let baseline = reference_longest_path(&dag, 0);
        for seed in 1u64..5 {
            let shuffled = reference_longest_path(&dag, seed);
            for (u, (a, b)) in baseline.iter().zip(&shuffled).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "node {} differs under shuffle seed {}: {} vs {}", u, seed, a, b);
            }
        }
    }

    /// Every task's priority strictly exceeds each successor's — the
    /// launch-cost padding guarantees this even across zero-FLOP edges,
    /// and the scheduler's inversion counter depends on it.
    #[test]
    fn priorities_strictly_exceed_every_successor(
        n in 8usize..48,
        nb in 4usize..10,
        entries in proptest::collection::vec(
            (0usize..64, 0usize..64, -2.0f64..2.0), 1..140),
    ) {
        let a = dd_matrix(n, &entries);
        let (bm, tg) = analyse(&a, nb);
        let pr = TaskPriorities::compute(&bm, &tg);
        let dag = task_dag(&bm, &tg);
        let of = |u: usize| if u < dag.npanels { pr.panel[u] } else { pr.ssssm[u - dag.npanels] };
        for u in 0..dag.weight.len() {
            for &v in &dag.succ[u] {
                prop_assert!(
                    of(u) > of(v),
                    "edge {} -> {}: priority {} must strictly exceed {}",
                    u, v, of(u), of(v));
            }
        }
    }
}

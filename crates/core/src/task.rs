//! The kernel task graph and the synchronisation-free array (§4.4).
//!
//! Every non-empty block owes exactly one *panel* operation — GETRF for
//! diagonal blocks, GESSM for blocks right of the diagonal, TSTRF below —
//! plus zero or more SSSSM updates before it. The synchronisation-free
//! array holds, per block, the number of SSSSM updates still outstanding;
//! a diagonal block whose counter would drop below zero has been factored
//! and releases its block row and column (the paper's "value −1" state).
//!
//! [`TaskGraph`] precomputes everything the executors and the DES need:
//! per-step panel lists, SSSSM triples, indegrees, per-block FLOP weights
//! and the destinations each finished block must be shipped to.

use std::cmp::Ordering;

use pangulu_kernels::flops;

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;

/// One schedulable kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Factor diagonal block `k`.
    Getrf { k: usize },
    /// Lower solve on block `(k, j)`, `j > k`.
    Gessm { k: usize, j: usize },
    /// Upper solve on block `(i, k)`, `i > k`.
    Tstrf { i: usize, k: usize },
    /// Schur update `(i, j) -= (i, k) * (k, j)`.
    Ssssm { i: usize, j: usize, k: usize },
}

impl Task {
    /// The elimination step this task belongs to.
    pub fn step(&self) -> usize {
        match *self {
            Task::Getrf { k } => k,
            Task::Gessm { k, .. } => k,
            Task::Tstrf { k, .. } => k,
            Task::Ssssm { k, .. } => k,
        }
    }

    /// The block this task writes.
    pub fn target(&self) -> (usize, usize) {
        match *self {
            Task::Getrf { k } => (k, k),
            Task::Gessm { k, j } => (k, j),
            Task::Tstrf { i, k } => (i, k),
            Task::Ssssm { i, j, .. } => (i, j),
        }
    }

    /// Kernel-class rank for priority ties: GETRF first, then the panel
    /// solves, then SSSSM (critical path first, §4.4).
    fn class_rank(&self) -> u8 {
        match self {
            Task::Getrf { .. } => 0,
            Task::Gessm { .. } | Task::Tstrf { .. } => 1,
            Task::Ssssm { .. } => 2,
        }
    }
}

/// Priority wrapper: lower step first, then class rank, then target for
/// determinism. `BinaryHeap` is a max-heap, so the `Ord` is reversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrioritisedTask(pub Task);

impl Ord for PrioritisedTask {
    fn cmp(&self, other: &Self) -> Ordering {
        let a = (self.0.step(), self.0.class_rank(), self.0.target());
        let b = (other.0.step(), other.0.class_rank(), other.0.target());
        b.cmp(&a) // reversed: smallest first out of the max-heap
    }
}

impl PartialOrd for PrioritisedTask {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The full static task graph of one factorisation.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// Number of block rows/columns.
    pub nblk: usize,
    /// Per elimination step `k`: the L-panel block rows `i > k` with a
    /// block at `(i, k)`.
    pub l_panels: Vec<Vec<usize>>,
    /// Per elimination step `k`: the U-panel block columns `j > k` with a
    /// block at `(k, j)`.
    pub u_panels: Vec<Vec<usize>>,
    /// All SSSSM triples `(i, j, k)` with all three blocks present.
    pub ssssm: Vec<(usize, usize, usize)>,
    /// FLOP weight of each SSSSM update, parallel to [`TaskGraph::ssssm`].
    pub ssssm_flops: Vec<f64>,
    /// The synchronisation-free array: per block id, the number of SSSSM
    /// updates it must receive before its panel operation.
    pub indegree: Vec<usize>,
    /// FLOP weight of each block's panel operation, by block id.
    pub panel_flops: Vec<f64>,
    /// Total FLOP weight of the SSSSM updates targeting each block id.
    pub update_flops: Vec<f64>,
}

impl TaskGraph {
    /// Builds the graph from the block structure. `O(Σ_k |L_k|·|U_k|)`.
    pub fn build<S: pangulu_sparse::Scalar>(bm: &BlockMatrix<S>) -> Self {
        let nblk = bm.nblk();
        let mut l_panels: Vec<Vec<usize>> = vec![Vec::new(); nblk];
        let mut u_panels: Vec<Vec<usize>> = vec![Vec::new(); nblk];
        for (bj, lp) in l_panels.iter_mut().enumerate() {
            for (bi, _) in bm.col_blocks(bj) {
                match bi.cmp(&bj) {
                    Ordering::Greater => lp.push(bi),
                    Ordering::Less => u_panels[bi].push(bj),
                    Ordering::Equal => {}
                }
            }
        }
        for l in &mut l_panels {
            l.sort_unstable();
        }
        for u in &mut u_panels {
            u.sort_unstable();
        }

        let mut ssssm = Vec::new();
        let mut ssssm_flops = Vec::new();
        let mut indegree = vec![0usize; bm.num_blocks()];
        let mut update_flops = vec![0.0f64; bm.num_blocks()];
        // Per step k: SSSSM flops for the (i, j) pair reduce to a dot
        // product of A(i,k)'s per-column nnz with B(k,j)'s per-row entry
        // counts over the inner dimension — O(nb) per pair instead of
        // O(nnz(B)).
        let mut a_colnnz: Vec<Vec<f64>> = Vec::new();
        let mut b_rowcnt: Vec<Vec<f64>> = Vec::new();
        for k in 0..nblk {
            let width_k = bm.block(bm.block_id(k, k).expect("diag exists")).ncols();
            a_colnnz.clear();
            for &i in &l_panels[k] {
                let a = bm.block(bm.block_id(i, k).expect("L panel exists"));
                a_colnnz.push((0..a.ncols()).map(|c| a.col_nnz(c) as f64).collect());
            }
            b_rowcnt.clear();
            for &j in &u_panels[k] {
                let b = bm.block(bm.block_id(k, j).expect("U panel exists"));
                let mut cnt = vec![0.0f64; width_k];
                for &r in b.row_idx() {
                    cnt[r] += 1.0;
                }
                b_rowcnt.push(cnt);
            }
            for (ai, &i) in l_panels[k].iter().enumerate() {
                for (bj, &j) in u_panels[k].iter().enumerate() {
                    if let Some(c_id) = bm.block_id(i, j) {
                        ssssm.push((i, j, k));
                        indegree[c_id] += 1;
                        let fl: f64 =
                            a_colnnz[ai].iter().zip(&b_rowcnt[bj]).map(|(a, b)| a * b).sum::<f64>()
                                * 2.0;
                        ssssm_flops.push(fl);
                        update_flops[c_id] += fl;
                    }
                    // A missing (i, j) means the product is structurally
                    // empty (closure), so there is nothing to schedule.
                }
            }
        }

        let mut panel_flops = vec![0.0f64; bm.num_blocks()];
        for (id, pf) in panel_flops.iter_mut().enumerate() {
            let (bi, bj) = bm.block_coords(id);
            *pf = match bi.cmp(&bj) {
                Ordering::Equal => flops::getrf_flops(bm.block(id)),
                Ordering::Less => {
                    let diag = bm.block_id(bi, bi).expect("diagonal exists");
                    flops::gessm_flops(bm.block(diag), bm.block(id))
                }
                Ordering::Greater => {
                    let diag = bm.block_id(bj, bj).expect("diagonal exists");
                    flops::tstrf_flops(bm.block(diag), bm.block(id))
                }
            };
        }

        TaskGraph {
            nblk,
            l_panels,
            u_panels,
            ssssm,
            ssssm_flops,
            indegree,
            panel_flops,
            update_flops,
        }
    }

    /// Total task count (one panel op per block plus the SSSSMs).
    pub fn num_tasks(&self, num_blocks: usize) -> usize {
        num_blocks + self.ssssm.len()
    }

    /// Total FLOPs of the numeric factorisation.
    pub fn total_flops(&self) -> f64 {
        self.panel_flops.iter().sum::<f64>() + self.update_flops.iter().sum::<f64>()
    }

    /// Total weight (panel + incoming updates) of a block — the unit the
    /// static load balancer migrates (§4.2).
    pub fn block_weight(&self, id: usize) -> f64 {
        self.panel_flops[id] + self.update_flops[id]
    }

    /// Destination ranks that must receive the factored diagonal block
    /// `k`: the owners of its row and column panels.
    pub fn diag_destinations<S: pangulu_sparse::Scalar>(
        &self,
        bm: &BlockMatrix<S>,
        owners: &OwnerMap,
        k: usize,
    ) -> Vec<usize> {
        let mut dests: Vec<usize> = self.l_panels[k]
            .iter()
            .map(|&i| owners.owner_of(bm.block_id(i, k).expect("panel exists")))
            .chain(
                self.u_panels[k]
                    .iter()
                    .map(|&j| owners.owner_of(bm.block_id(k, j).expect("panel exists"))),
            )
            .collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    /// Destination ranks of a finished L-panel block `(i, k)`: the owners
    /// of every SSSSM target `(i, j)` it feeds.
    pub fn l_panel_destinations<S: pangulu_sparse::Scalar>(
        &self,
        bm: &BlockMatrix<S>,
        owners: &OwnerMap,
        i: usize,
        k: usize,
    ) -> Vec<usize> {
        let mut dests: Vec<usize> = self.u_panels[k]
            .iter()
            .filter_map(|&j| bm.block_id(i, j))
            .map(|cid| owners.owner_of(cid))
            .collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    /// Sorted elimination steps of the SSSSM updates targeting block
    /// `cid`, with their indices into [`TaskGraph::ssssm`] — the
    /// ascending-k reduction chain the executor walks with its cursor.
    pub fn update_chain<S: pangulu_sparse::Scalar>(
        &self,
        bm: &BlockMatrix<S>,
        cid: usize,
    ) -> Vec<(usize, usize)> {
        let (bi, bj) = bm.block_coords(cid);
        let mut chain: Vec<(usize, usize)> = self
            .ssssm
            .iter()
            .enumerate()
            .filter(|(_, &(i, j, _))| i == bi && j == bj)
            .map(|(gid, &(_, _, k))| (k, gid))
            .collect();
        chain.sort_unstable();
        chain
    }

    /// Index of update `(i, j, k)` in [`TaskGraph::ssssm`] — the slot key
    /// of its kernel plan. [`TaskGraph::build`] emits the triples in
    /// ascending `(k, i, j)` order, so this is a binary search and no
    /// executor needs a lookup table.
    pub fn ssssm_index(&self, i: usize, j: usize, k: usize) -> Option<usize> {
        self.ssssm.binary_search_by_key(&(k, i, j), |&(i, j, k)| (k, i, j)).ok()
    }

    /// Destination ranks of a finished U-panel block `(k, j)`.
    pub fn u_panel_destinations<S: pangulu_sparse::Scalar>(
        &self,
        bm: &BlockMatrix<S>,
        owners: &OwnerMap,
        k: usize,
        j: usize,
    ) -> Vec<usize> {
        let mut dests: Vec<usize> = self.l_panels[k]
            .iter()
            .filter_map(|&i| bm.block_id(i, j))
            .map(|cid| owners.owner_of(cid))
            .collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }
}

/// Analysis-time critical-path priorities: every task's longest
/// FLOP-weighted path to a sink of the task DAG, with
/// [`flops::TASK_LAUNCH_COST`] added to each task so the length strictly
/// decreases along every dependency edge. Computed once during analysis
/// (it is a pure function of the sparsity pattern), cached next to the
/// kernel plans in the solver's analysis, and read — never recomputed —
/// by every factorisation and refactorisation.
///
/// The DAG edges are the executor's real dependencies:
/// `GETRF(k) → {GESSM(k,j), TSTRF(i,k)}`, each panel → the SSSSM updates
/// consuming it, each update → the next update of its target's
/// ascending-k reduction chain, and the last chain update → the target's
/// panel operation. Every edge strictly increases `(step, phase)` with
/// phase GETRF < solves < SSSSM (using `k < min(i, j)` for updates), so
/// one reverse sweep over steps computes the exact longest path.
#[derive(Debug, Clone, Default)]
pub struct TaskPriorities {
    /// Priority of each block's panel operation, by block id (diagonal
    /// ids carry the GETRF priority).
    pub panel: Vec<f64>,
    /// Priority of each SSSSM update, parallel to [`TaskGraph::ssssm`].
    pub ssssm: Vec<f64>,
}

impl TaskPriorities {
    /// Computes the critical-path lengths for `tg` over `bm`'s structure.
    pub fn compute<S: pangulu_sparse::Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> Self {
        let nblk = tg.nblk;
        let nblocks = bm.num_blocks();
        let mut panel = vec![0.0f64; nblocks];
        let mut ssssm = vec![0.0f64; tg.ssssm.len()];

        // Successor structures: per-panel fan-out into updates, per-step
        // update lists, and per-target ascending-k chains. Built from the
        // triples alone, so the result is independent of their order.
        let mut l_succ: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        let mut u_succ: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        let mut by_step: Vec<Vec<usize>> = vec![Vec::new(); nblk];
        let mut chains: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nblocks];
        for (gid, &(i, j, k)) in tg.ssssm.iter().enumerate() {
            l_succ[bm.block_id(i, k).expect("L operand exists")].push(gid);
            u_succ[bm.block_id(k, j).expect("U operand exists")].push(gid);
            by_step[k].push(gid);
            chains[bm.block_id(i, j).expect("target exists")].push((k, gid));
        }
        // Next update in each target's chain, else the target's panel op.
        let mut next_in_chain: Vec<Option<usize>> = vec![None; tg.ssssm.len()];
        let mut chain_target: Vec<usize> = vec![usize::MAX; tg.ssssm.len()];
        for (cid, ch) in chains.iter_mut().enumerate() {
            ch.sort_unstable(); // unique k per target: total order
            for w in 0..ch.len() {
                chain_target[ch[w].1] = cid;
                if w + 1 < ch.len() {
                    next_in_chain[ch[w].1] = Some(ch[w + 1].1);
                }
            }
        }

        for s in (0..nblk).rev() {
            // Updates of step s: successors (next chain update at a later
            // step, or the target panel at step min(i,j) > s) are done.
            for &gid in &by_step[s] {
                let succ = match next_in_chain[gid] {
                    Some(g) => ssssm[g],
                    None => panel[chain_target[gid]],
                };
                ssssm[gid] = tg.ssssm_flops[gid] + flops::TASK_LAUNCH_COST + succ;
            }
            // Off-diagonal panels of step s feed exactly the step-s
            // updates computed above.
            for &j in &tg.u_panels[s] {
                let id = bm.block_id(s, j).expect("U panel exists");
                let best = u_succ[id].iter().map(|&g| ssssm[g]).fold(0.0f64, f64::max);
                panel[id] = tg.panel_flops[id] + flops::TASK_LAUNCH_COST + best;
            }
            for &i in &tg.l_panels[s] {
                let id = bm.block_id(i, s).expect("L panel exists");
                let best = l_succ[id].iter().map(|&g| ssssm[g]).fold(0.0f64, f64::max);
                panel[id] = tg.panel_flops[id] + flops::TASK_LAUNCH_COST + best;
            }
            // The diagonal factor gates both panels of its step.
            let diag = bm.block_id(s, s).expect("diag exists");
            let best = tg.u_panels[s]
                .iter()
                .map(|&j| panel[bm.block_id(s, j).expect("U panel exists")])
                .chain(
                    tg.l_panels[s]
                        .iter()
                        .map(|&i| panel[bm.block_id(i, s).expect("L panel exists")]),
                )
                .fold(0.0f64, f64::max);
            panel[diag] = tg.panel_flops[diag] + flops::TASK_LAUNCH_COST + best;
        }

        TaskPriorities { panel, ssssm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn build(n: usize, nb: usize, seed: u64) -> (BlockMatrix, TaskGraph) {
        let a = ensure_diagonal(&gen::random_sparse(n, 0.1, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        (bm, tg)
    }

    #[test]
    fn indegree_counts_match_ssssm_list() {
        let (bm, tg) = build(48, 8, 1);
        let mut counts = vec![0usize; bm.num_blocks()];
        for &(i, j, _) in &tg.ssssm {
            counts[bm.block_id(i, j).unwrap()] += 1;
        }
        assert_eq!(counts, tg.indegree);
    }

    #[test]
    fn every_ssssm_has_lower_step_than_target_panel() {
        let (_, tg) = build(48, 8, 2);
        for (n, &(i, j, k)) in tg.ssssm.iter().enumerate() {
            assert!(k < i.min(j), "SSSSM ({i},{j},{k}) must precede step {}", i.min(j));
            assert_eq!(tg.ssssm_index(i, j, k), Some(n), "update list must be (k, i, j)-sorted");
        }
        assert_eq!(tg.ssssm_index(0, 0, 0), None);
    }

    /// The executors route every SSSSM task on `ssssm_flops[n]` instead
    /// of re-walking `B`; that shortcut is licensed by the stored value
    /// being bit-equal to `flops::ssssm_flops` on the task's operands.
    #[test]
    fn stored_ssssm_flops_are_bit_equal_to_the_operand_walk() {
        let filled = |a: &pangulu_sparse::CscMatrix| symbolic_fill(a).unwrap().filled_matrix(a);
        for (name, a, nb) in [
            ("random", ensure_diagonal(&gen::random_sparse(60, 0.1, 4)).unwrap(), 7),
            ("kkt", gen::kkt(120, 50, 3), 13),
            ("circuit", gen::circuit(200, 5), 16),
        ] {
            let bm = BlockMatrix::from_filled(&filled(&a).unwrap(), nb).unwrap();
            let tg = TaskGraph::build(&bm);
            assert!(!tg.ssssm.is_empty(), "{name}: no updates to check");
            for (n, &(i, j, k)) in tg.ssssm.iter().enumerate() {
                let a_blk = bm.block(bm.block_id(i, k).unwrap());
                let b_blk = bm.block(bm.block_id(k, j).unwrap());
                assert_eq!(
                    tg.ssssm_flops[n].to_bits(),
                    flops::ssssm_flops(a_blk, b_blk).to_bits(),
                    "{name}: update {n} = ({i},{j},{k})"
                );
            }
        }
    }

    #[test]
    fn priority_orders_steps_then_class() {
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(PrioritisedTask(Task::Ssssm { i: 3, j: 3, k: 0 }));
        heap.push(PrioritisedTask(Task::Getrf { k: 0 }));
        heap.push(PrioritisedTask(Task::Gessm { k: 0, j: 2 }));
        heap.push(PrioritisedTask(Task::Getrf { k: 1 }));
        let order: Vec<Task> = std::iter::from_fn(|| heap.pop().map(|p| p.0)).collect();
        assert_eq!(order[0], Task::Getrf { k: 0 });
        assert_eq!(order[1], Task::Gessm { k: 0, j: 2 });
        assert_eq!(order[2], Task::Ssssm { i: 3, j: 3, k: 0 });
        assert_eq!(order[3], Task::Getrf { k: 1 });
    }

    #[test]
    fn flop_weights_are_positive_for_nontrivial_blocks() {
        let (bm, tg) = build(60, 10, 3);
        assert!(tg.total_flops() > 0.0);
        for k in 0..bm.nblk() {
            let id = bm.block_id(k, k).unwrap();
            assert!(tg.panel_flops[id] >= 0.0);
        }
    }

    #[test]
    fn priorities_strictly_decrease_along_every_edge() {
        let (bm, tg) = build(48, 8, 5);
        let pr = TaskPriorities::compute(&bm, &tg);
        for k in 0..tg.nblk {
            let d = bm.block_id(k, k).unwrap();
            for &j in &tg.u_panels[k] {
                assert!(
                    pr.panel[d] > pr.panel[bm.block_id(k, j).unwrap()],
                    "GETRF({k})→U({k},{j})"
                );
            }
            for &i in &tg.l_panels[k] {
                assert!(
                    pr.panel[d] > pr.panel[bm.block_id(i, k).unwrap()],
                    "GETRF({k})→L({i},{k})"
                );
            }
        }
        for (gid, &(i, j, k)) in tg.ssssm.iter().enumerate() {
            let upd = pr.ssssm[gid];
            assert!(pr.panel[bm.block_id(i, k).unwrap()] > upd, "L({i},{k})→SSSSM({i},{j},{k})");
            assert!(pr.panel[bm.block_id(k, j).unwrap()] > upd, "U({k},{j})→SSSSM({i},{j},{k})");
            // Transitively through the ascending-k chain, every update
            // outranks its target's panel operation.
            assert!(
                upd > pr.panel[bm.block_id(i, j).unwrap()],
                "SSSSM({i},{j},{k})→panel({i},{j})"
            );
        }
    }

    #[test]
    fn update_chain_is_sorted_and_covers_indegree() {
        let (bm, tg) = build(48, 8, 6);
        for cid in 0..bm.num_blocks() {
            let chain = tg.update_chain(&bm, cid);
            assert_eq!(chain.len(), tg.indegree[cid]);
            for w in chain.windows(2) {
                assert!(w[0].0 < w[1].0, "chain steps must strictly ascend");
            }
        }
    }

    #[test]
    fn destinations_cover_dependents() {
        let (bm, tg) = build(64, 8, 4);
        let owners = OwnerMap::block_cyclic(&bm, pangulu_comm::ProcessGrid::new(4));
        for k in 0..bm.nblk() {
            let dests = tg.diag_destinations(&bm, &owners, k);
            for &i in &tg.l_panels[k] {
                let o = owners.owner_of(bm.block_id(i, k).unwrap());
                assert!(dests.contains(&o));
            }
            for w in dests.windows(2) {
                assert!(w[0] < w[1], "destinations must be sorted+deduped");
            }
        }
    }
}

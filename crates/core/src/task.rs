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
//! and the one dependency rule every executor runs: each task's initial
//! wait ([`TaskGraph::wait`]) and the tasks a finished task releases
//! ([`TaskGraph::releases`]), from which the ranks a finished block is
//! shipped to follow ([`TaskGraph::destinations`]).

use std::cmp::{Ordering, Reverse};

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
    pub(crate) fn class_rank(&self) -> u8 {
        match self {
            Task::Getrf { .. } => 0,
            Task::Gessm { .. } | Task::Tstrf { .. } => 1,
            Task::Ssssm { .. } => 2,
        }
    }
}

/// A ready-queue entry: the task's step-major key — lower step first,
/// then class rank, then target for determinism — and its countdown slot
/// (see [`TaskGraph::wait`]). `BinaryHeap` is a max-heap, so the key is
/// reversed; it is computed once, when the task is queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PrioritisedTask {
    key: Reverse<(usize, u8, (usize, usize))>,
    /// The task's countdown slot.
    pub slot: usize,
}

impl PrioritisedTask {
    /// The queue entry of `task`, whose countdown slot is `slot`.
    pub fn new(task: Task, slot: usize) -> Self {
        PrioritisedTask { key: Reverse((task.step(), task.class_rank(), task.target())), slot }
    }

    /// The queued task, rebuilt from its key.
    pub fn task(&self) -> Task {
        let Reverse((k, class, (i, j))) = self.key;
        match class {
            0 => Task::Getrf { k },
            1 if i == k => Task::Gessm { k, j },
            1 => Task::Tstrf { i, k },
            _ => Task::Ssssm { i, j, k },
        }
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
    /// The per-target update chains, parallel to [`TaskGraph::ssssm`]:
    /// the index of the next update (next larger `k`) onto the same
    /// target block, `None` on a target's last update. Every executor
    /// applies a target's updates one at a time along its chain.
    pub next_on_target: Vec<Option<u32>>,
    /// The synchronisation-free array: per block id, the number of SSSSM
    /// updates it must receive before its panel operation.
    pub indegree: Vec<usize>,
    /// FLOP weight of each block's panel operation, by block id.
    pub panel_flops: Vec<f64>,
    /// Total FLOP weight of the SSSSM updates targeting each block id.
    pub update_flops: Vec<f64>,
    /// The initial wait of every task, by slot: panel ops by block id,
    /// then update `g` at `num_blocks + g`. A panel op waits on the last
    /// update of its target chain, if it has one, and on its diagonal
    /// factor, if it is off-diagonal; an update waits on its two operands
    /// and on its chain predecessor, if it has one.
    pub wait: Vec<u32>,
    /// Block id of each update's target, parallel to [`TaskGraph::ssssm`].
    update_target: Vec<u32>,
    /// The release lists in CSR form: the slots `releases(s)` lists are
    /// `release_idx[release_ptr[s]..release_ptr[s + 1]]`.
    release_ptr: Vec<usize>,
    release_idx: Vec<u32>,
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

        let num_blocks = bm.num_blocks();
        let mut ssssm = Vec::new();
        let mut ssssm_flops = Vec::new();
        let mut next_on_target: Vec<Option<u32>> = Vec::new();
        let mut update_target: Vec<u32> = Vec::new();
        // Latest update seen per target: triples come out in ascending
        // `k`, so linking each to its target's previous one forms the chain.
        let mut last_on_target: Vec<Option<u32>> = vec![None; num_blocks];
        let mut indegree = vec![0usize; num_blocks];
        let mut update_flops = vec![0.0f64; num_blocks];
        // The dependency rule as (releasing slot, released slot) edges.
        let mut edges: Vec<(usize, u32)> = Vec::new();
        // Per step k: SSSSM flops for the (i, j) pair reduce to a dot
        // product of A(i,k)'s per-column nnz with B(k,j)'s per-row entry
        // counts over the inner dimension — O(nb) per pair instead of
        // O(nnz(B)).
        let mut a_colnnz: Vec<Vec<f64>> = Vec::new();
        let mut b_rowcnt: Vec<Vec<f64>> = Vec::new();
        let (mut l_ids, mut u_ids) = (Vec::new(), Vec::new());
        for k in 0..nblk {
            let diag = bm.block_id(k, k).expect("diag exists");
            let width_k = bm.block(diag).ncols();
            l_ids.clear();
            a_colnnz.clear();
            for &i in &l_panels[k] {
                let id = bm.block_id(i, k).expect("L panel exists");
                let a = bm.block(id);
                l_ids.push(id);
                a_colnnz.push((0..a.ncols()).map(|c| a.col_nnz(c) as f64).collect());
            }
            u_ids.clear();
            b_rowcnt.clear();
            for &j in &u_panels[k] {
                let id = bm.block_id(k, j).expect("U panel exists");
                let mut cnt = vec![0.0f64; width_k];
                for &r in bm.block(id).row_idx() {
                    cnt[r] += 1.0;
                }
                u_ids.push(id);
                b_rowcnt.push(cnt);
            }
            // GETRF(k) releases the panel solves of its step.
            edges.extend(u_ids.iter().chain(&l_ids).map(|&id| (diag, id as u32)));
            for (ai, &i) in l_panels[k].iter().enumerate() {
                for (bj, &j) in u_panels[k].iter().enumerate() {
                    if let Some(c_id) = bm.block_id(i, j) {
                        let g = u32::try_from(ssssm.len()).expect("update count fits u32");
                        if let Some(prev) = last_on_target[c_id].replace(g) {
                            next_on_target[prev as usize] = Some(g);
                        }
                        next_on_target.push(None);
                        update_target.push(c_id as u32);
                        ssssm.push((i, j, k));
                        indegree[c_id] += 1;
                        let slot = (num_blocks + g as usize) as u32;
                        edges.extend([(l_ids[ai], slot), (u_ids[bj], slot)]);
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
        // An update releases the next one on its target's chain, the
        // chain's last update the target's panel op.
        for (g, next) in next_on_target.iter().enumerate() {
            let released = next.map_or(update_target[g], |n| (num_blocks + n as usize) as u32);
            edges.push((num_blocks + g, released));
        }
        let num_slots = num_blocks + ssssm.len();
        let mut wait = vec![0u32; num_slots];
        let mut release_ptr = vec![0usize; num_slots + 1];
        for &(from, to) in &edges {
            release_ptr[from + 1] += 1;
            wait[to as usize] += 1;
        }
        for s in 0..num_slots {
            release_ptr[s + 1] += release_ptr[s];
        }
        let mut fill = release_ptr.clone();
        let mut release_idx = vec![0u32; edges.len()];
        for (from, to) in edges {
            release_idx[fill[from]] = to;
            fill[from] += 1;
        }

        let mut panel_flops = vec![0.0f64; num_blocks];
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
            next_on_target,
            indegree,
            panel_flops,
            update_flops,
            wait,
            update_target,
            release_ptr,
            release_idx,
        }
    }

    /// The tasks a finished task `slot` releases — the one dependency
    /// rule of every executor: each listed slot's wait drops by one, and
    /// whoever brings it to zero queues that task. GETRF(k) releases the
    /// panel solves of step `k`; a panel solve releases the updates that
    /// read it; an update releases the next update onto its target, or,
    /// as the chain's last, the target's panel op.
    pub fn releases(&self, slot: usize) -> &[u32] {
        &self.release_idx[self.release_ptr[slot]..self.release_ptr[slot + 1]]
    }

    /// The block the task in `slot` writes.
    pub fn block_of(&self, slot: usize) -> usize {
        // `indegree` has one entry per block: update slots start there.
        match slot.checked_sub(self.indegree.len()) {
            Some(g) => self.update_target[g] as usize,
            None => slot,
        }
    }

    /// The task in `slot`.
    pub fn task_at<S: pangulu_sparse::Scalar>(&self, bm: &BlockMatrix<S>, slot: usize) -> Task {
        if let Some(g) = slot.checked_sub(bm.num_blocks()) {
            let (i, j, k) = self.ssssm[g];
            return Task::Ssssm { i, j, k };
        }
        let (i, j) = bm.block_coords(slot);
        match i.cmp(&j) {
            Ordering::Equal => Task::Getrf { k: i },
            Ordering::Less => Task::Gessm { k: i, j },
            Ordering::Greater => Task::Tstrf { i, k: j },
        }
    }

    /// The ranks that must hold block `id` once its panel op finished:
    /// the owners of the tasks it releases, sorted and de-duplicated.
    pub fn destinations(&self, owners: &OwnerMap, id: usize) -> Vec<usize> {
        let mut dests: Vec<usize> =
            self.releases(id).iter().map(|&s| owners.owner_of(self.block_of(s as usize))).collect();
        dests.sort_unstable();
        dests.dedup();
        dests
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
}

/// Analysis-time critical-path priorities: every task's longest
/// FLOP-weighted path to a sink of the task DAG, with
/// [`flops::TASK_LAUNCH_COST`] added to each task so the length strictly
/// decreases along every dependency edge.
///
/// No executor and no simulator orders by it: every ready queue runs the
/// step-major [`PrioritisedTask`] order (`docs/SCHEDULING.md`). It stays
/// only because the benchmark's hand-driven pipeline still times a call
/// to it; ROADMAP item 1(d) deletes it, with `tests/priorities.rs`, when
/// that pipeline goes.
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

        // Successor structures: per-panel fan-out into updates and
        // per-step update lists; the chains are the task graph's own.
        let mut l_succ: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        let mut u_succ: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        let mut by_step: Vec<Vec<usize>> = vec![Vec::new(); nblk];
        for (gid, &(i, j, k)) in tg.ssssm.iter().enumerate() {
            l_succ[bm.block_id(i, k).expect("L operand exists")].push(gid);
            u_succ[bm.block_id(k, j).expect("U operand exists")].push(gid);
            by_step[k].push(gid);
        }

        for s in (0..nblk).rev() {
            // Updates of step s: successors (next chain update at a later
            // step, or the target panel at step min(i,j) > s) are done.
            for &gid in &by_step[s] {
                let succ = match tg.next_on_target[gid] {
                    Some(g) => ssssm[g as usize],
                    None => {
                        let (i, j, _) = tg.ssssm[gid];
                        panel[bm.block_id(i, j).expect("target exists")]
                    }
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
        for &(i, j, k) in &tg.ssssm {
            assert!(k < i.min(j), "SSSSM ({i},{j},{k}) must precede step {}", i.min(j));
        }
        let keys: Vec<_> = tg.ssssm.iter().map(|&(i, j, k)| (k, i, j)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "update list must be (k, i, j)-sorted");
    }

    #[test]
    fn update_chains_link_each_target_in_ascending_k() {
        let (bm, tg) = build(48, 8, 6);
        // Walk every chain from its head: the steps ascend, the target is
        // fixed, and together the chains cover each update exactly once.
        let mut has_pred = vec![false; tg.ssssm.len()];
        for next in tg.next_on_target.iter().flatten() {
            assert!(!std::mem::replace(&mut has_pred[*next as usize], true), "two predecessors");
        }
        let mut seen = vec![0usize; bm.num_blocks()];
        for head in (0..tg.ssssm.len()).filter(|&g| !has_pred[g]) {
            let (i, j, mut k) = tg.ssssm[head];
            let cid = bm.block_id(i, j).unwrap();
            assert_eq!(seen[cid], 0, "({i},{j}) has two chains");
            seen[cid] += 1;
            let mut g = head;
            while let Some(n) = tg.next_on_target[g] {
                let (ni, nj, nk) = tg.ssssm[n as usize];
                assert_eq!((ni, nj), (i, j), "a chain left its target");
                assert!(nk > k, "chain of ({i},{j}) not ascending in k");
                (g, k) = (n as usize, nk);
                seen[cid] += 1;
            }
        }
        assert_eq!(seen, tg.indegree, "chains must cover every update of every target");
    }

    /// The three block structures the stored-FLOP pins walk.
    fn flop_pin_cases() -> Vec<(&'static str, BlockMatrix, TaskGraph)> {
        let filled = |a: &pangulu_sparse::CscMatrix| symbolic_fill(a).unwrap().filled_matrix(a);
        [
            ("random", ensure_diagonal(&gen::random_sparse(60, 0.1, 4)).unwrap(), 7),
            ("kkt", gen::kkt(120, 50, 3), 13),
            ("circuit", gen::circuit(200, 5), 16),
        ]
        .into_iter()
        .map(|(name, a, nb)| {
            let bm = BlockMatrix::from_filled(&filled(&a).unwrap(), nb).unwrap();
            let tg = TaskGraph::build(&bm);
            (name, bm, tg)
        })
        .collect()
    }

    /// The executors route every SSSSM task on `ssssm_flops[n]` instead
    /// of re-walking `B`; that shortcut is licensed by the stored value
    /// being bit-equal to `flops::ssssm_flops` on the task's operands.
    #[test]
    fn stored_ssssm_flops_are_bit_equal_to_the_operand_walk() {
        for (name, bm, tg) in flop_pin_cases() {
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

    /// The meter records `panel_flops[id]` for every panel task and the
    /// report predicts their sum, so each stored value must be bit-equal
    /// to the class's operand walk on that block.
    #[test]
    fn stored_panel_flops_are_bit_equal_to_the_operand_walk() {
        for (name, bm, tg) in flop_pin_cases() {
            let mut classes = [0usize; 3];
            for id in 0..bm.num_blocks() {
                let (bi, bj) = bm.block_coords(id);
                let diag = bm.block(bm.block_id(bi.min(bj), bi.min(bj)).unwrap());
                let (class, walk) = match bi.cmp(&bj) {
                    Ordering::Equal => (0, flops::getrf_flops(bm.block(id))),
                    Ordering::Less => (1, flops::gessm_flops(diag, bm.block(id))),
                    Ordering::Greater => (2, flops::tstrf_flops(diag, bm.block(id))),
                };
                classes[class] += 1;
                assert_eq!(
                    tg.panel_flops[id].to_bits(),
                    walk.to_bits(),
                    "{name}: block {id} = ({bi},{bj})"
                );
            }
            assert!(classes.iter().all(|&c| c > 0), "{name}: a panel class is missing");
        }
    }

    #[test]
    fn priority_orders_steps_then_class() {
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(PrioritisedTask::new(Task::Ssssm { i: 3, j: 3, k: 0 }, 0));
        heap.push(PrioritisedTask::new(Task::Getrf { k: 0 }, 1));
        heap.push(PrioritisedTask::new(Task::Gessm { k: 0, j: 2 }, 2));
        heap.push(PrioritisedTask::new(Task::Tstrf { i: 2, k: 0 }, 3));
        heap.push(PrioritisedTask::new(Task::Getrf { k: 1 }, 4));
        let order: Vec<Task> = std::iter::from_fn(|| heap.pop().map(|p| p.task())).collect();
        assert_eq!(order[0], Task::Getrf { k: 0 });
        assert_eq!(order[1], Task::Gessm { k: 0, j: 2 });
        assert_eq!(order[2], Task::Tstrf { i: 2, k: 0 });
        assert_eq!(order[3], Task::Ssssm { i: 3, j: 3, k: 0 });
        assert_eq!(order[4], Task::Getrf { k: 1 });
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

    /// The consumers of a finished panel block by the paper's rules,
    /// walked from the panel lists: a diagonal factor feeds its step's
    /// panels, an L-panel `(i, k)` the targets `(i, j)`, a U-panel
    /// `(k, j)` the targets `(i, j)`.
    fn consumer_blocks(bm: &BlockMatrix, tg: &TaskGraph, id: usize) -> Vec<usize> {
        let (bi, bj) = bm.block_coords(id);
        let k = bi.min(bj);
        match bi.cmp(&bj) {
            Ordering::Equal => (tg.u_panels[k].iter().map(|&j| (k, j)))
                .chain(tg.l_panels[k].iter().map(|&i| (i, k)))
                .filter_map(|(i, j)| bm.block_id(i, j))
                .collect(),
            Ordering::Greater => {
                tg.u_panels[k].iter().filter_map(|&j| bm.block_id(bi, j)).collect()
            }
            Ordering::Less => tg.l_panels[k].iter().filter_map(|&i| bm.block_id(i, bj)).collect(),
        }
    }

    fn step_class(t: Task) -> (usize, u8) {
        (t.step(), t.class_rank())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        /// The one dependency rule over random block structures: each
        /// task's initial wait is the number of tasks that release it and
        /// matches the rule's definition, every release goes to a strictly
        /// later (step, class), and a finished block's destinations are
        /// the owners of its consumers.
        #[test]
        fn releases_are_the_dependency_rule(
            (n, nb, seed, ranks) in (8usize..90, 1usize..24, 0u64..1000, 1usize..7)
        ) {
            let (bm, tg) = build(n, nb, seed);
            let nblocks = bm.num_blocks();
            assert_eq!(tg.wait.len(), tg.num_tasks(nblocks));
            let mut released = vec![0u32; tg.wait.len()];
            for slot in 0..tg.wait.len() {
                let from = tg.task_at(&bm, slot);
                assert_eq!(bm.block_id(from.target().0, from.target().1), Some(tg.block_of(slot)));
                for &s in tg.releases(slot) {
                    let to = tg.task_at(&bm, s as usize);
                    assert!(step_class(to) > step_class(from), "{from:?} releases {to:?}");
                    released[s as usize] += 1;
                }
            }
            assert_eq!(released, tg.wait, "waits are the release in-degrees");
            let mut has_pred = vec![false; tg.ssssm.len()];
            for &next in tg.next_on_target.iter().flatten() {
                has_pred[next as usize] = true;
            }
            for (slot, &wait) in tg.wait.iter().enumerate() {
                let rule = match tg.task_at(&bm, slot) {
                    Task::Ssssm { .. } => 2 + u32::from(has_pred[slot - nblocks]),
                    t => {
                        let (bi, bj) = t.target();
                        u32::from(tg.indegree[slot] > 0) + u32::from(bi != bj)
                    }
                };
                assert_eq!(wait, rule, "slot {slot}");
            }
            let owners = OwnerMap::block_cyclic(&bm, pangulu_comm::ProcessGrid::new(ranks));
            for id in 0..nblocks {
                let mut want: Vec<usize> =
                    consumer_blocks(&bm, &tg, id).into_iter().map(|b| owners.owner_of(b)).collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(tg.destinations(&owners, id), want, "block {id}");
            }
        }
    }
}

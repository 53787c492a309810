//! Shared-memory parallel numeric factorisation.
//!
//! PanguLU also runs on multicore CPUs without MPI; this is that mode:
//! the synchronisation-free counter array of §4.4, with worker threads
//! sharing one block store instead of exchanging messages. Every task —
//! one panel operation per block, one update per SSSSM triple — owns an
//! atomic count of the tasks it still waits for:
//!
//! * a block's panel op waits on the last update of its target chain (if
//!   it has updates) and on its diagonal factor (if it is off-diagonal);
//! * update `g` waits on its two panel operands and on the previous
//!   update onto the same target ([`TaskGraph::next_on_target`]).
//!
//! The finisher of a dependency decrements with `AcqRel`, and whoever
//! brings a count to zero pushes the task onto the shared ready heap. A
//! target's updates therefore run one at a time in ascending `k` — the
//! rule of the sequential and distributed executors — so the factors are
//! bitwise those of [`crate::seq::factor_sequential_planned`] at any
//! thread count.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pangulu_kernels::select::KernelSelector;
use pangulu_kernels::{KernelPlans, KernelScratch, TimedKernels};
use pangulu_sparse::{CscMatrix, Scalar};

use crate::block::BlockMatrix;
use crate::seq::NumericStats;
use crate::task::{PrioritisedTask, Task, TaskGraph};

/// A mutable-shared view of the block store.
///
/// Safety: a block is written only by the task its countdown admitted —
/// each update after its predecessor on the target, the panel op after
/// the last update — and read as an operand only by tasks its panel op
/// released. The `AcqRel` countdown orders every write before the
/// accesses it unlocks.
struct SharedBlocks<S> {
    ptr: *mut CscMatrix<S>,
}

// SAFETY: the one field points into a block store that outlives the
// scoped workers, and the countdown above serialises every access to a
// block, so handing the pointer to other threads is sound.
unsafe impl<S: Scalar> Send for SharedBlocks<S> {}
// SAFETY: as for `Send`: shared use goes through `get` / `get_mut`,
// whose callers uphold the countdown's one-writer rule.
unsafe impl<S: Scalar> Sync for SharedBlocks<S> {}

impl<S: Scalar> SharedBlocks<S> {
    /// # Safety
    ///
    /// `id` indexes the store, and no task writes block `id` while the
    /// returned reference lives.
    #[inline]
    unsafe fn get(&self, id: usize) -> &CscMatrix<S> {
        &*self.ptr.add(id)
    }

    /// # Safety
    ///
    /// `id` indexes the store, and the caller is the one task the
    /// countdown admitted to touch block `id`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, id: usize) -> &mut CscMatrix<S> {
        &mut *self.ptr.add(id)
    }
}

/// One factorisation in flight: what every worker reads, and the
/// countdown per task — panel ops by block id, then updates by their
/// index into [`TaskGraph::ssssm`] offset by the block count.
struct Run<'a, S: Scalar> {
    bm: &'a BlockMatrix<S>,
    tg: &'a TaskGraph,
    selector: &'a KernelSelector,
    plans: &'a KernelPlans<S>,
    pivot_floor: f64,
    blocks: SharedBlocks<S>,
    waits: Vec<AtomicUsize>,
    ready: Mutex<BinaryHeap<PrioritisedTask>>,
    remaining: AtomicUsize,
    perturbed: AtomicUsize,
}

/// Factorises `bm` in place with `threads` shared-memory workers, every
/// task running along the route `plans` decides for it (its precomputed
/// index plan where the selector's planned gate is open, the tree's
/// variant otherwise). Missing plans are built eagerly (single-threaded,
/// from patterns only) before the workers start, so the pool is
/// immutable during execution and reused verbatim on later calls. The
/// factors are bitwise equal to the sequential executor's.
pub fn factor_shared_planned<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    threads: usize,
    plans: &mut KernelPlans<S>,
) -> NumericStats {
    build_all_plans(bm, tg, selector, plans);
    let nblk = bm.nblk();
    let num_blocks = bm.num_blocks();
    if num_blocks == 0 {
        return NumericStats::default();
    }

    let mut waits = Vec::with_capacity(num_blocks + tg.ssssm.len());
    let mut seeds = BinaryHeap::new();
    for id in 0..num_blocks {
        let (bi, bj) = bm.block_coords(id);
        let wait = usize::from(tg.indegree[id] > 0) + usize::from(bi != bj);
        if wait == 0 {
            seeds.push(PrioritisedTask(Task::Getrf { k: bi }));
        }
        waits.push(AtomicUsize::new(wait));
    }
    waits.extend(tg.ssssm.iter().map(|_| AtomicUsize::new(2)));
    for next in tg.next_on_target.iter().flatten() {
        *waits[num_blocks + *next as usize].get_mut() += 1;
    }

    let run = Run {
        blocks: SharedBlocks { ptr: blocks_ptr(bm) },
        bm,
        tg,
        selector,
        plans,
        pivot_floor,
        waits,
        ready: Mutex::new(seeds),
        remaining: AtomicUsize::new(num_blocks + tg.ssssm.len()),
        perturbed: AtomicUsize::new(0),
    };
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| run.work());
        }
    });

    NumericStats {
        perturbed_pivots: run.perturbed.into_inner(),
        flops: tg.total_flops(),
        kernel_counts: [
            nblk,
            tg.u_panels.iter().map(|v| v.len()).sum(),
            tg.l_panels.iter().map(|v| v.len()).sum(),
            tg.ssssm.len(),
        ],
        ..Default::default()
    }
}

/// Routes every task once so each plan the selector's gates admit
/// exists before the workers start. Patterns are fixed by the symbolic
/// phase, so building from the unfactored blocks is identical to
/// building lazily mid-factorisation; tasks whose planned gate is closed
/// (the calibrated cuts send them to the dense-addressed variants) get
/// no plan, keeping the pool's memory proportional to the planned
/// working set — the same plans the distributed executor would build
/// lazily.
fn build_all_plans<S: Scalar>(
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    plans: &mut KernelPlans<S>,
) {
    for k in 0..bm.nblk() {
        let diag = bm.block(bm.block_id(k, k).expect("diag exists"));
        plans.route_getrf(selector, k, diag);
        for &j in &tg.u_panels[k] {
            let id = bm.block_id(k, j).expect("panel exists");
            plans.route_gessm(selector, id, diag, bm.block(id));
        }
        for &i in &tg.l_panels[k] {
            let id = bm.block_id(i, k).expect("panel exists");
            plans.route_tstrf(selector, id, diag, bm.block(id));
        }
    }
    for (n, &(i, j, k)) in tg.ssssm.iter().enumerate() {
        let a = bm.block(bm.block_id(i, k).expect("L operand"));
        let b = bm.block(bm.block_id(k, j).expect("U operand"));
        let c = bm.block(bm.block_id(i, j).expect("target"));
        plans.route_ssssm(selector, n, tg.ssssm_flops[n], a, b, c);
    }
    plans.shrink_to_fit();
}

fn blocks_ptr<S: Scalar>(bm: &mut BlockMatrix<S>) -> *mut CscMatrix<S> {
    // The block store is a dense slice; ids index it directly.
    bm.block_mut(0) as *mut CscMatrix<S>
}

impl<S: Scalar> Run<'_, S> {
    /// One worker: pop the lowest ready task, run it, queue what it freed.
    fn work(&self) {
        let mut scratch = KernelScratch::<S>::with_capacity(self.bm.nb());
        let mut kernels = TimedKernels::new(false);
        let mut freed = Vec::new();
        while self.remaining.load(Ordering::Acquire) > 0 {
            let popped = self.ready.lock().expect("ready heap poisoned").pop();
            let Some(PrioritisedTask(task)) = popped else {
                std::thread::yield_now();
                continue;
            };
            self.execute(task, &mut scratch, &mut kernels, &mut freed);
            if !freed.is_empty() {
                let mut ready = self.ready.lock().expect("ready heap poisoned");
                ready.extend(freed.drain(..).map(PrioritisedTask));
            }
            self.remaining.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Counts down the wait of task `slot`; the finisher that reaches
    /// zero collects it into `freed`.
    fn release(&self, slot: usize, task: Task, freed: &mut Vec<Task>) {
        if self.waits[slot].fetch_sub(1, Ordering::AcqRel) == 1 {
            freed.push(task);
        }
    }

    fn execute(
        &self,
        task: Task,
        scratch: &mut KernelScratch<S>,
        kernels: &mut TimedKernels,
        freed: &mut Vec<Task>,
    ) {
        let (bm, tg, sel, plans) = (self.bm, self.tg, self.selector, self.plans);
        let first_update = bm.num_blocks(); // countdown slot of update 0
        match task {
            Task::Getrf { k } => {
                let id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: every update onto (k, k) has finished and every
                // reader of it waits on this GETRF.
                let blk = unsafe { self.blocks.get_mut(id) };
                let route = plans.prebuilt_getrf(sel, k, blk);
                let n = kernels.getrf(route, blk, scratch, self.pivot_floor, tg.panel_flops[id]);
                self.perturbed.fetch_add(n, Ordering::Relaxed);
                for &j in &tg.u_panels[k] {
                    let pid = bm.block_id(k, j).expect("panel exists");
                    self.release(pid, Task::Gessm { k, j }, freed);
                }
                for &i in &tg.l_panels[k] {
                    let pid = bm.block_id(i, k).expect("panel exists");
                    self.release(pid, Task::Tstrf { i, k }, freed);
                }
            }
            Task::Gessm { k, j } => {
                let id = bm.block_id(k, j).expect("panel exists");
                let diag_id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: GETRF(k) released this task, so the diagonal is
                // final; the panel's updates have finished and its
                // readers wait on this task.
                let (diag, blk) = unsafe { (self.blocks.get(diag_id), self.blocks.get_mut(id)) };
                let route = plans.prebuilt_gessm(sel, id, diag, blk);
                kernels.gessm(route, diag, blk, scratch, tg.panel_flops[id]);
                for &i in &tg.l_panels[k] {
                    if let Some(g) = tg.ssssm_index(i, j, k) {
                        self.release(first_update + g, Task::Ssssm { i, j, k }, freed);
                    }
                }
            }
            Task::Tstrf { i, k } => {
                let id = bm.block_id(i, k).expect("panel exists");
                let diag_id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: as for GESSM.
                let (diag, blk) = unsafe { (self.blocks.get(diag_id), self.blocks.get_mut(id)) };
                let route = plans.prebuilt_tstrf(sel, id, diag, blk);
                kernels.tstrf(route, diag, blk, scratch, tg.panel_flops[id]);
                for &j in &tg.u_panels[k] {
                    if let Some(g) = tg.ssssm_index(i, j, k) {
                        self.release(first_update + g, Task::Ssssm { i, j, k }, freed);
                    }
                }
            }
            Task::Ssssm { i, j, k } => {
                let g = tg.ssssm_index(i, j, k).expect("queued update is in the task graph");
                let c_id = bm.block_id(i, j).expect("target");
                // SAFETY: both operand panels released this update and are
                // final; the previous update onto (i, j) has finished, and
                // the next one and the target's panel op wait on this one.
                let (a, b, c) = unsafe {
                    (
                        self.blocks.get(bm.block_id(i, k).expect("L operand")),
                        self.blocks.get(bm.block_id(k, j).expect("U operand")),
                        self.blocks.get_mut(c_id),
                    )
                };
                let fl = tg.ssssm_flops[g];
                kernels.ssssm(plans.prebuilt_ssssm(sel, g, fl, a, c), a, b, c, scratch, fl);
                match tg.next_on_target[g] {
                    Some(next) => {
                        let (i, j, k) = tg.ssssm[next as usize];
                        self.release(first_update + next as usize, Task::Ssssm { i, j, k }, freed);
                    }
                    None => {
                        let panel = match i.cmp(&j) {
                            std::cmp::Ordering::Equal => Task::Getrf { k: i },
                            std::cmp::Ordering::Less => Task::Gessm { k: i, j },
                            std::cmp::Ordering::Greater => Task::Tstrf { i, k: j },
                        };
                        self.release(c_id, panel, freed);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{empty_plans, factor_sequential_planned};
    use pangulu_kernels::select::Thresholds;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn build(n: usize, nb: usize, seed: u64) -> (usize, BlockMatrix, TaskGraph) {
        let a = ensure_diagonal(&gen::random_sparse(n, 0.1, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        (a.nnz(), bm, tg)
    }

    #[test]
    fn shared_memory_factor_matches_sequential() {
        for (threads, seed) in [(1usize, 11u64), (3, 12), (4, 13)] {
            let (nnz, bm0, tg) = build(60, 8, seed);
            let sel = KernelSelector::new(nnz, Thresholds::default());
            let mut seq_bm = bm0.clone();
            factor_sequential_planned(&mut seq_bm, &tg, &sel, 0.0, &mut empty_plans(&bm0, &tg));
            let want = seq_bm.to_csc();

            let mut par_bm = bm0.clone();
            let mut plans = empty_plans(&par_bm, &tg);
            factor_shared_planned(&mut par_bm, &tg, &sel, 0.0, threads, &mut plans);
            assert_eq!(par_bm.to_csc().values(), want.values(), "threads={threads} seed={seed}");
            // Every admitted task got a plan, eagerly, before the workers
            // ran; a second factorisation reuses the pool without rebuilding.
            let builds = plans.stats().builds;
            assert!(builds > 0);
            factor_shared_planned(&mut bm0.clone(), &tg, &sel, 0.0, threads, &mut plans);
            assert_eq!(plans.stats().builds, builds);

            // Closed planned gates: same factor from the tree's variants
            // alone, and nothing is ever built.
            let closed = KernelSelector::new(nnz, Thresholds::unplanned());
            let mut plain_bm = bm0;
            let mut none = empty_plans(&plain_bm, &tg);
            factor_shared_planned(&mut plain_bm, &tg, &closed, 0.0, threads, &mut none);
            assert_eq!(plain_bm.to_csc().values(), want.values(), "threads={threads}: unplanned");
            assert_eq!(none.stats().builds, 0);
        }
    }

    #[test]
    fn shared_memory_stats_count_tasks() {
        let (nnz, mut bm, tg) = build(50, 10, 3);
        let sel = KernelSelector::new(nnz, Thresholds::default());
        let mut plans = empty_plans(&bm, &tg);
        let stats = factor_shared_planned(&mut bm, &tg, &sel, 1e-12, 2, &mut plans);
        assert_eq!(stats.kernel_counts[0], bm.nblk());
        assert_eq!(stats.kernel_counts[3], tg.ssssm.len());
    }
}

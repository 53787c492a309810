//! Shared-memory parallel numeric factorisation.
//!
//! PanguLU also runs on multicore CPUs without MPI; this is that mode:
//! the same synchronisation-free counter array as the distributed
//! executor, but with worker threads sharing one block store instead of
//! exchanging messages. Publication order is enforced the lock-free way
//! the Atomics-and-Locks guide teaches:
//!
//! * every block has an atomic counter (outstanding SSSSM updates) and a
//!   `finished` flag; finished blocks are **immutable** and may be read
//!   by any worker after an `Acquire` load of the flag;
//! * in-progress target blocks are protected by a per-block spin claim
//!   (an `AtomicBool`), because two SSSSM updates to the same target can
//!   be runnable at once;
//! * runnable tasks flow through a global injector of worklists; workers
//!   pop, execute, and push whatever their completion unlocks.

use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use pangulu_kernels::select::KernelSelector;
use pangulu_kernels::{KernelPlans, KernelScratch, TimedKernels};
use pangulu_sparse::{CscMatrix, Scalar};

use crate::block::BlockMatrix;
use crate::seq::NumericStats;
use crate::task::{PrioritisedTask, Task, TaskGraph};

/// The scheduler: a priority heap plus the set of tasks ever queued.
/// Claim-before-push under one lock resolves every "who queues it" race
/// (two SSSSM operand finishers; a panel's last update racing its
/// diagonal factor) — the loser's insert returns `false`.
#[derive(Default)]
struct Sched {
    heap: BinaryHeap<PrioritisedTask>,
    claimed: HashSet<Task>,
}

impl Sched {
    fn push_once(&mut self, t: Task) {
        if self.claimed.insert(t) {
            self.heap.push(PrioritisedTask(t));
        }
    }
}

/// Per-block concurrency state.
struct BlockState {
    /// Outstanding SSSSM updates (the synchronisation-free array).
    pending: AtomicUsize,
    /// Exclusive-claim latch for writers.
    claimed: AtomicBool,
    /// Set (Release) when the block's panel op finished; readers Acquire.
    finished: AtomicBool,
}

/// A mutable-shared view of the block store.
///
/// Safety: writers hold the block's `claimed` latch; readers only touch
/// blocks whose `finished` flag they observed with `Acquire`, which
/// happens-after the writer's final store.
struct SharedBlocks<S> {
    ptr: *mut CscMatrix<S>,
}

unsafe impl<S: Scalar> Send for SharedBlocks<S> {}
unsafe impl<S: Scalar> Sync for SharedBlocks<S> {}

impl<S: Scalar> SharedBlocks<S> {
    #[inline]
    unsafe fn get(&self, id: usize) -> &CscMatrix<S> {
        &*self.ptr.add(id)
    }

    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, id: usize) -> &mut CscMatrix<S> {
        &mut *self.ptr.add(id)
    }
}

/// Factorises `bm` in place with `threads` shared-memory workers, every
/// task running along the route `plans` decides for it (its precomputed
/// index plan where the selector's planned gate is open, the tree's
/// variant otherwise). Missing plans are built eagerly (single-threaded,
/// from patterns only) before the workers start, so the pool is
/// immutable during execution and reused verbatim on later calls.
/// Deterministic results are **not** guaranteed bit-for-bit when several
/// SSSSM updates race for the same target (floating-point addition is
/// not associative); tests use tolerances accordingly.
pub fn factor_shared_planned<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    threads: usize,
    plans: &mut KernelPlans<S>,
) -> NumericStats {
    build_all_plans(bm, tg, selector, plans);
    let plans = &*plans;
    let threads = threads.max(1);
    let nblk = bm.nblk();
    let num_blocks = bm.num_blocks();

    let state: Vec<BlockState> = (0..num_blocks)
        .map(|id| BlockState {
            pending: AtomicUsize::new(tg.indegree[id]),
            claimed: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        })
        .collect();
    // Diagonal factors published (GETRF done), indexed by step.
    let diag_ready: Vec<AtomicBool> = (0..nblk).map(|_| AtomicBool::new(false)).collect();

    if num_blocks == 0 {
        return NumericStats::default();
    }
    let queue: Mutex<Sched> = Mutex::new(Sched::default());
    {
        let mut q = queue.lock().unwrap();
        for id in 0..num_blocks {
            let (bi, bj) = bm.block_coords(id);
            if bi == bj && tg.indegree[id] == 0 {
                q.push_once(Task::Getrf { k: bi });
            }
        }
    }
    let remaining = AtomicUsize::new(num_blocks + tg.ssssm.len());
    let perturbed = AtomicUsize::new(0);
    let nb = bm.nb();

    let shared = SharedBlocks { ptr: blocks_ptr(bm) };

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut scratch = KernelScratch::<S>::with_capacity(nb);
                let mut kernels = TimedKernels::new(false);
                loop {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    let task = queue.lock().unwrap().heap.pop();
                    let Some(PrioritisedTask(task)) = task else {
                        std::thread::yield_now();
                        continue;
                    };
                    execute_shared(
                        bm,
                        tg,
                        selector,
                        pivot_floor,
                        &shared,
                        &state,
                        &diag_ready,
                        &queue,
                        &remaining,
                        &perturbed,
                        task,
                        &mut scratch,
                        &mut kernels,
                        plans,
                    );
                }
            });
        }
    });

    NumericStats {
        perturbed_pivots: perturbed.load(Ordering::Relaxed),
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

/// Spins until the block's exclusive latch is taken.
fn claim(state: &BlockState) {
    let mut spins = 0u32;
    while state.claimed.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err()
    {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

fn release(state: &BlockState) {
    state.claimed.store(false, Ordering::Release);
}

/// Spins until a block's `finished` flag is published.
fn wait_finished(state: &BlockState) {
    let mut spins = 0u32;
    while !state.finished.load(Ordering::Acquire) {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_shared<S: Scalar>(
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    shared: &SharedBlocks<S>,
    state: &[BlockState],
    diag_ready: &[AtomicBool],
    queue: &Mutex<Sched>,
    remaining: &AtomicUsize,
    perturbed: &AtomicUsize,
    task: Task,
    scratch: &mut KernelScratch<S>,
    kernels: &mut TimedKernels,
    plans: &KernelPlans<S>,
) {
    match task {
        Task::Getrf { k } => {
            let id = bm.block_id(k, k).expect("diag exists");
            claim(&state[id]);
            // Safety: exclusive via the claim latch.
            let blk = unsafe { shared.get_mut(id) };
            let route = plans.prebuilt_getrf(selector, k, blk);
            let n = kernels.getrf(route, blk, scratch, pivot_floor);
            perturbed.fetch_add(n, Ordering::Relaxed);
            state[id].finished.store(true, Ordering::Release);
            release(&state[id]);
            diag_ready[k].store(true, Ordering::Release);
            remaining.fetch_sub(1, Ordering::AcqRel);
            // Release the panels of step k whose updates are already done
            // (claim-before-push deduplicates against the racing SSSSM
            // completion handler).
            let mut q = queue.lock().unwrap();
            for &j in &tg.u_panels[k] {
                let pid = bm.block_id(k, j).expect("panel exists");
                if state[pid].pending.load(Ordering::Acquire) == 0 {
                    q.push_once(Task::Gessm { k, j });
                }
            }
            for &i in &tg.l_panels[k] {
                let pid = bm.block_id(i, k).expect("panel exists");
                if state[pid].pending.load(Ordering::Acquire) == 0 {
                    q.push_once(Task::Tstrf { i, k });
                }
            }
        }
        Task::Gessm { k, j } => {
            let id = bm.block_id(k, j).expect("panel exists");
            let diag_id = bm.block_id(k, k).expect("diag exists");
            wait_finished(&state[diag_id]);
            claim(&state[id]);
            // Safety: diag finished (immutable); target claimed.
            let diag = unsafe { shared.get(diag_id) };
            let blk = unsafe { shared.get_mut(id) };
            kernels.gessm(plans.prebuilt_gessm(selector, id, diag, blk), diag, blk, scratch);
            state[id].finished.store(true, Ordering::Release);
            release(&state[id]);
            remaining.fetch_sub(1, Ordering::AcqRel);
            schedule_ssssm_for_u(bm, tg, state, queue, k, j);
        }
        Task::Tstrf { i, k } => {
            let id = bm.block_id(i, k).expect("panel exists");
            let diag_id = bm.block_id(k, k).expect("diag exists");
            wait_finished(&state[diag_id]);
            claim(&state[id]);
            let diag = unsafe { shared.get(diag_id) };
            let blk = unsafe { shared.get_mut(id) };
            kernels.tstrf(plans.prebuilt_tstrf(selector, id, diag, blk), diag, blk, scratch);
            state[id].finished.store(true, Ordering::Release);
            release(&state[id]);
            remaining.fetch_sub(1, Ordering::AcqRel);
            schedule_ssssm_for_l(bm, tg, state, queue, i, k);
        }
        Task::Ssssm { i, j, k } => {
            let a_id = bm.block_id(i, k).expect("L operand");
            let b_id = bm.block_id(k, j).expect("U operand");
            let c_id = bm.block_id(i, j).expect("target");
            // Operands are finished and immutable; target is claimed.
            claim(&state[c_id]);
            let a = unsafe { shared.get(a_id) };
            let b = unsafe { shared.get(b_id) };
            let c = unsafe { shared.get_mut(c_id) };
            let slot = tg.ssssm_index(i, j, k).expect("queued update is in the task graph");
            let fl = tg.ssssm_flops[slot];
            kernels.ssssm(plans.prebuilt_ssssm(selector, slot, fl, a, c), a, b, c, scratch, fl);
            release(&state[c_id]);
            remaining.fetch_sub(1, Ordering::AcqRel);
            let left = state[c_id].pending.fetch_sub(1, Ordering::AcqRel) - 1;
            if left == 0 {
                let (bi, bj) = bm.block_coords(c_id);
                let next = match bi.cmp(&bj) {
                    std::cmp::Ordering::Equal => Some(Task::Getrf { k: bi }),
                    std::cmp::Ordering::Less => diag_ready[bi]
                        .load(Ordering::Acquire)
                        .then_some(Task::Gessm { k: bi, j: bj }),
                    std::cmp::Ordering::Greater => diag_ready[bj]
                        .load(Ordering::Acquire)
                        .then_some(Task::Tstrf { i: bi, k: bj }),
                };
                if let Some(t) = next {
                    queue.lock().unwrap().push_once(t);
                }
                // If the diagonal was not ready, the GETRF completion
                // handler will re-check this panel's counter and queue it.
            }
        }
    }
}

/// Schedules SSSSM tasks unlocked by the completion of `U(k, j)`: each
/// becomes runnable once both panel operands have published; the second
/// finisher wins the claim under the queue lock and pushes.
fn schedule_ssssm_for_u<S: Scalar>(
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    state: &[BlockState],
    queue: &Mutex<Sched>,
    k: usize,
    j: usize,
) {
    let mut q = queue.lock().unwrap();
    for &i in &tg.l_panels[k] {
        if bm.block_id(i, j).is_none() {
            continue;
        }
        let a_id = bm.block_id(i, k).expect("L panel exists");
        if state[a_id].finished.load(Ordering::Acquire) {
            q.push_once(Task::Ssssm { i, j, k });
        }
    }
}

/// Schedules SSSSM tasks unlocked by the completion of `L(i, k)`.
fn schedule_ssssm_for_l<S: Scalar>(
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    state: &[BlockState],
    queue: &Mutex<Sched>,
    i: usize,
    k: usize,
) {
    let mut q = queue.lock().unwrap();
    for &j in &tg.u_panels[k] {
        if bm.block_id(i, j).is_none() {
            continue;
        }
        let b_id = bm.block_id(k, j).expect("U panel exists");
        if state[b_id].finished.load(Ordering::Acquire) {
            q.push_once(Task::Ssssm { i, j, k });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
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
            factor_sequential(&mut seq_bm, &tg, &sel, 0.0);
            let scale = seq_bm.to_csc().norm_max().max(1.0);
            let seq_dense = seq_bm.to_csc().to_dense();

            let mut par_bm = bm0.clone();
            let mut plans = crate::seq::empty_plans(&par_bm, &tg);
            factor_shared_planned(&mut par_bm, &tg, &sel, 0.0, threads, &mut plans);
            let diff = seq_dense.max_abs_diff(&par_bm.to_csc().to_dense());
            assert!(diff / scale < 1e-10, "threads={threads} seed={seed}: diff {}", diff / scale);
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
            let mut none = crate::seq::empty_plans(&plain_bm, &tg);
            factor_shared_planned(&mut plain_bm, &tg, &closed, 0.0, threads, &mut none);
            let diff = seq_dense.max_abs_diff(&plain_bm.to_csc().to_dense());
            assert!(diff / scale < 1e-10, "threads={threads} seed={seed}: unplanned diff");
            assert_eq!(none.stats().builds, 0);
        }
    }

    #[test]
    fn shared_memory_stats_count_tasks() {
        let (nnz, mut bm, tg) = build(50, 10, 3);
        let sel = KernelSelector::new(nnz, Thresholds::default());
        let mut plans = crate::seq::empty_plans(&bm, &tg);
        let stats = factor_shared_planned(&mut bm, &tg, &sel, 1e-12, 2, &mut plans);
        assert_eq!(stats.kernel_counts[0], bm.nblk());
        assert_eq!(stats.kernel_counts[3], tg.ssssm.len());
    }
}

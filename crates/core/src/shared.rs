//! The countdown engine: the synchronisation-free counter array of §4.4
//! over one shared block store.
//!
//! PanguLU also runs on multicore CPUs without MPI; this is that mode,
//! and its one-worker instance, run on the caller's thread, is the
//! sequential executor ([`crate::seq::factor_sequential_planned`]). Every
//! task — one panel operation per block, one update per SSSSM triple —
//! owns an atomic count set from [`TaskGraph::wait`]. The finisher of a
//! task counts down, with `AcqRel`, every task [`TaskGraph::releases`]
//! lists, and whoever brings a count to zero pushes that task onto the
//! shared ready heap. A target's updates therefore run one at a time in
//! ascending `k` — the rule of the distributed executor too — so the
//! factors are bitwise the same at any worker count.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

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

/// Raises a run's abort flag when the thread holding it unwinds, so the
/// other workers or ranks of a run whose task panicked stop instead of
/// waiting for work that will never come.
pub(crate) struct AbortOnUnwind<'a>(pub(crate) &'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Joins every scoped worker and re-raises the first one's own panic, so
/// the caller sees the failing task's message, not a generic join error.
pub(crate) fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    let mut first_panic = None;
    for h in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// One factorisation in flight: what every worker reads, and the
/// countdown per task slot.
struct Run<'a, S: Scalar> {
    bm: &'a BlockMatrix<S>,
    tg: &'a TaskGraph,
    selector: &'a KernelSelector,
    plans: &'a KernelPlans<S>,
    pivot_floor: f64,
    blocks: SharedBlocks<S>,
    waits: Vec<AtomicU32>,
    ready: Mutex<BinaryHeap<PrioritisedTask>>,
    remaining: AtomicUsize,
    perturbed: AtomicUsize,
    abort: AtomicBool,
}

/// Factorises `bm` in place with `threads` workers sharing one block
/// store; one worker runs on the caller's thread. Every task runs along
/// the route `plans` decides for it (its precomputed index plan where the
/// selector's planned gate is open, the tree's variant otherwise). Missing
/// plans are built eagerly (single-threaded, from patterns only) before
/// the workers start, so the pool is immutable during execution and
/// reused verbatim on later calls. The factors are bitwise equal to the
/// unplanned sweep's ([`crate::seq::factor_sequential`]) at any worker
/// count. The phase times are kernel time summed over the workers.
pub fn factor_shared_planned<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    threads: usize,
    plans: &mut KernelPlans<S>,
) -> NumericStats {
    build_all_plans(bm, tg, selector, plans);
    let num_blocks = bm.num_blocks();
    if num_blocks == 0 {
        return NumericStats::default();
    }
    let seeds = (0..num_blocks)
        .filter(|&id| tg.wait[id] == 0)
        .map(|id| PrioritisedTask::new(tg.task_at(bm, id), id))
        .collect();
    let run = Run {
        blocks: SharedBlocks { ptr: blocks_ptr(bm) },
        bm,
        tg,
        selector,
        plans,
        pivot_floor,
        waits: tg.wait.iter().map(|&w| AtomicU32::new(w)).collect(),
        ready: Mutex::new(seeds),
        remaining: AtomicUsize::new(tg.wait.len()),
        perturbed: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
    };
    let times = if threads <= 1 {
        vec![run.work()]
    } else {
        std::thread::scope(|s| join_all((0..threads).map(|_| s.spawn(|| run.work())).collect()))
    };
    let [getrf_time, trsm_time, ssssm_time] =
        times.into_iter().fold([Duration::ZERO; 3], |a, t| [a[0] + t[0], a[1] + t[1], a[2] + t[2]]);

    NumericStats {
        getrf_time,
        trsm_time,
        ssssm_time,
        perturbed_pivots: run.perturbed.into_inner(),
        flops: tg.total_flops(),
        kernel_counts: [
            bm.nblk(),
            tg.u_panels.iter().map(|v| v.len()).sum(),
            tg.l_panels.iter().map(|v| v.len()).sum(),
            tg.ssssm.len(),
        ],
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
        let c = bm.block(tg.block_of(bm.num_blocks() + n));
        plans.route_ssssm(selector, n, tg.ssssm_flops[n], a, b, c);
    }
    plans.shrink_to_fit();
}

fn blocks_ptr<S: Scalar>(bm: &mut BlockMatrix<S>) -> *mut CscMatrix<S> {
    // The block store is a dense slice; ids index it directly.
    bm.block_mut(0) as *mut CscMatrix<S>
}

impl<S: Scalar> Run<'_, S> {
    /// One worker: pop the lowest ready task, run it, count down what it
    /// releases. Returns the worker's kernel time per class: GETRF, the
    /// panel solves, SSSSM.
    fn work(&self) -> [Duration; 3] {
        let _abort_on_unwind = AbortOnUnwind(&self.abort);
        let mut scratch = KernelScratch::<S>::with_capacity(self.bm.nb());
        let mut kernels = TimedKernels::new(false);
        let mut times = [Duration::ZERO; 3];
        // Tasks this worker freed, queued when it next takes the lock.
        let mut freed = Vec::new();
        while self.remaining.load(Ordering::Acquire) > 0 && !self.abort.load(Ordering::Relaxed) {
            let popped = {
                let mut ready = self.ready.lock().expect("ready heap poisoned");
                ready.extend(freed.drain(..));
                ready.pop()
            };
            let Some(ready) = popped else {
                std::thread::yield_now();
                continue;
            };
            let (task, slot) = (ready.task(), ready.slot);
            let t0 = Instant::now();
            self.execute(task, slot, &mut scratch, &mut kernels);
            times[usize::from(task.class_rank())] += t0.elapsed();
            for &s in self.tg.releases(slot) {
                let s = s as usize;
                if self.waits[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                    freed.push(PrioritisedTask::new(self.tg.task_at(self.bm, s), s));
                }
            }
            self.remaining.fetch_sub(1, Ordering::AcqRel);
        }
        times
    }

    /// Runs the kernel of `task`, whose countdown just reached zero.
    fn execute(
        &self,
        task: Task,
        slot: usize,
        scratch: &mut KernelScratch<S>,
        kernels: &mut TimedKernels,
    ) {
        let (bm, tg, sel, plans) = (self.bm, self.tg, self.selector, self.plans);
        let id = tg.block_of(slot);
        match task {
            Task::Getrf { k } => {
                // SAFETY: every update onto (k, k) has finished and every
                // reader of it waits on this GETRF.
                let blk = unsafe { self.blocks.get_mut(id) };
                let route = plans.prebuilt_getrf(sel, k, blk);
                let n = kernels.getrf(route, blk, scratch, self.pivot_floor, tg.panel_flops[id]);
                self.perturbed.fetch_add(n, Ordering::Relaxed);
            }
            Task::Gessm { k, .. } => {
                let diag_id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: GETRF(k) released this task, so the diagonal is
                // final; the panel's updates have finished and its
                // readers wait on this task.
                let (diag, blk) = unsafe { (self.blocks.get(diag_id), self.blocks.get_mut(id)) };
                let route = plans.prebuilt_gessm(sel, id, diag, blk);
                kernels.gessm(route, diag, blk, scratch, tg.panel_flops[id]);
            }
            Task::Tstrf { k, .. } => {
                let diag_id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: as for GESSM.
                let (diag, blk) = unsafe { (self.blocks.get(diag_id), self.blocks.get_mut(id)) };
                let route = plans.prebuilt_tstrf(sel, id, diag, blk);
                kernels.tstrf(route, diag, blk, scratch, tg.panel_flops[id]);
            }
            Task::Ssssm { i, j, k } => {
                let g = slot - bm.num_blocks();
                // SAFETY: both operand panels released this update and are
                // final; the previous update onto (i, j) has finished, and
                // the next one and the target's panel op wait on this one.
                let (a, b, c) = unsafe {
                    (
                        self.blocks.get(bm.block_id(i, k).expect("L operand")),
                        self.blocks.get(bm.block_id(k, j).expect("U operand")),
                        self.blocks.get_mut(id),
                    )
                };
                let fl = tg.ssssm_flops[g];
                kernels.ssssm(plans.prebuilt_ssssm(sel, g, fl, a, c), a, b, c, scratch, fl);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{empty_plans, factor_sequential};
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

//! The countdown engine: the synchronisation-free counter array of §4.4,
//! and the one task-execution core of the numeric phase.
//!
//! Every task — one panel operation per block, one update per SSSSM
//! triple — owns an atomic count set from [`TaskGraph::wait`]. The
//! finisher of a task counts down, with `AcqRel`, every task
//! [`TaskGraph::releases`] lists, and whoever brings a count to zero
//! queues that task on the ready heap, popped in step-major order. A
//! target's updates therefore run one at a time in ascending `k`, so the
//! factors are bitwise the same at any worker count and on any grid.
//!
//! An engine runs over one block store and counts down the tasks of one
//! owner. In the multicore mode the owner is everyone: the workers share
//! the solver's block store, and the one-worker instance on the caller's
//! thread is the sequential executor
//! ([`crate::seq::factor_sequential_planned`]). In the multi-rank mode
//! ([`crate::dist`]) each rank is a one-worker instance that counts down
//! the tasks it owns, over the solver's store for the blocks it owns and
//! its own table of received copies for the rest, and the mailbox is an
//! edge around it: a received block counts down what its panel op
//! released, exactly as a finished local task does.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use pangulu_kernels::select::KernelSelector;
use pangulu_kernels::{KernelPlans, KernelScratch, PlanTask, TimedKernels};
use pangulu_metrics::TaskCounts;
use pangulu_sparse::{CscMatrix, Scalar};

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;
use crate::seq::NumericStats;
use crate::task::{PrioritisedTask, Task, TaskGraph};

/// A mutable-shared view of the blocks one engine runs over, indexed by
/// block id: the solver's store for the blocks the engine's owner owns,
/// and, on a rank, the rank's own table for the others — the copies of
/// remote blocks that arrived as messages.
///
/// Safety: a block is written only by the task its countdown admitted —
/// each update after its predecessor on the target, the panel op after
/// the last update — and read as an operand only by tasks its panel op
/// released. The `AcqRel` countdown orders every write before the
/// accesses it unlocks. Owned sets are disjoint, so the ranks of one run
/// write disjoint blocks of the one store. The writes outside a task are
/// a rank's receive path ([`Engine::store_received`]): a rank runs one
/// worker, so it stores a received block in its own table on that
/// worker's own thread, between two tasks, and only then counts down the
/// tasks that read it.
pub(crate) struct SharedBlocks<'a, S> {
    store: *mut CscMatrix<S>,
    table: *mut CscMatrix<S>,
    owner: Owner<'a>,
}

// SAFETY: both pointers point at block stores that outlive the scoped
// workers or ranks, and the countdown above serialises every access to a
// block, so handing the pointers to other threads is sound.
unsafe impl<S: Scalar> Send for SharedBlocks<'_, S> {}
// SAFETY: as for `Send`: shared use goes through `get` / `get_mut`,
// whose callers uphold the countdown's one-writer rule; the accesses
// outside a task, `Engine::{finished, store_received}`, need
// `&mut Engine`, so they are never shared.
unsafe impl<S: Scalar> Sync for SharedBlocks<'_, S> {}

impl<'a, S: Scalar> SharedBlocks<'a, S> {
    /// A view for an engine that counts down `owner`'s tasks over a block
    /// matrix `bm`: the blocks `owner` owns live in `store`, the others
    /// in `table` (empty under [`Owner::All`], which owns every block).
    ///
    /// # Safety
    ///
    /// `store` points at `bm`'s block store, one block per block id;
    /// `table`, unless `owner` is [`Owner::All`], holds one slot per
    /// block id too. Both outlive the engine the view is handed to. Each
    /// block id is reached by at most one engine, its owner's, through
    /// the store: views handed to engines that live at the same time have
    /// disjoint owners. A remote id is reached only through that rank's
    /// own table, except that its owner's finished block may be read in
    /// the store once the message carrying it has arrived
    /// ([`Engine::store_received`]). Nothing else reaches either store
    /// while the engine lives; in particular no `&mut` to the whole store
    /// exists.
    pub(crate) unsafe fn new(
        owner: Owner<'a>,
        store: *mut CscMatrix<S>,
        table: &mut [CscMatrix<S>],
    ) -> Self {
        SharedBlocks { store, table: table.as_mut_ptr(), owner }
    }

    /// Where block `id` lives: the store if the owner owns it, else the
    /// table.
    #[inline]
    fn slot(&self, id: usize) -> *mut CscMatrix<S> {
        let base = if self.owner.owns(id) { self.store } else { self.table };
        base.wrapping_add(id)
    }

    /// # Safety
    ///
    /// `id` is a block id of the store, and no task writes block `id`
    /// while the returned reference lives.
    #[inline]
    unsafe fn get(&self, id: usize) -> &CscMatrix<S> {
        &*self.slot(id)
    }

    /// # Safety
    ///
    /// `id` is a block id of the store, and the caller is the one task
    /// the countdown admitted to touch block `id`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, id: usize) -> &mut CscMatrix<S> {
        &mut *self.slot(id)
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

/// Whose tasks an engine counts down and runs.
#[derive(Clone, Copy)]
pub(crate) enum Owner<'a> {
    /// Every task: the one-rank and multicore modes.
    All,
    /// The tasks that write a block this rank owns under the map.
    Rank(&'a OwnerMap, usize),
}

impl Owner<'_> {
    fn owns(self, id: usize) -> bool {
        match self {
            Owner::All => true,
            Owner::Rank(map, rank) => map.owner_of(id) == rank,
        }
    }
}

/// One worker's kernel scratch and account: the kernel meter, kernel time
/// per class, tasks run by kind and perturbed pivots. [`NumericStats`]
/// and a rank's `RankMetrics` are both read off it.
pub(crate) struct Worker<S: Scalar> {
    scratch: KernelScratch<S>,
    /// The kernel front door (metering when built enabled).
    pub(crate) kernels: TimedKernels,
    /// Kernel time per class: GETRF, the panel solves, SSSSM.
    pub(crate) times: [Duration; 3],
    /// Tasks run, by kernel kind.
    pub(crate) tasks: TaskCounts,
    /// Statically perturbed pivots.
    pub(crate) perturbed: usize,
    /// Tasks this worker freed, queued when it next takes the heap's lock.
    freed: Vec<PrioritisedTask>,
}

impl<S: Scalar> Worker<S> {
    /// A worker for blocks of dimension `nb`; `metered` turns the kernel
    /// meter on.
    pub(crate) fn new(nb: usize, metered: bool) -> Self {
        Worker {
            scratch: KernelScratch::with_capacity(nb),
            kernels: TimedKernels::new(metered),
            times: [Duration::ZERO; 3],
            tasks: TaskCounts::default(),
            perturbed: 0,
            freed: Vec::new(),
        }
    }
}

/// One factorisation in flight over one block store: what every worker
/// reads, the countdown per task slot, and the ready heap.
pub(crate) struct Engine<'a, S: Scalar> {
    bm: &'a BlockMatrix<S>,
    tg: &'a TaskGraph,
    selector: &'a KernelSelector,
    plans: &'a KernelPlans<S>,
    pivot_floor: f64,
    blocks: SharedBlocks<'a, S>,
    waits: Vec<AtomicU32>,
    ready: Mutex<BinaryHeap<PrioritisedTask>>,
    remaining: AtomicUsize,
}

/// Factorises `bm` in place with `threads` workers sharing one block
/// store; one worker runs on the caller's thread. Every task runs along
/// the route `plans` decides for it (its precomputed index plan where one
/// was built, the dense-tile lane or the tree's variant otherwise). The
/// first call on a fresh pool builds no plan; later calls build the
/// missing ones the selector's gates admit (single-threaded, from
/// patterns only) before the workers start (`build_plans`), so the pool
/// is immutable during execution and reused verbatim after. The factors
/// are bitwise equal to the unplanned sweep's
/// ([`crate::seq::factor_sequential`]) at any worker count. The phase
/// times are kernel time summed over the workers.
pub fn factor_shared_planned<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    pivot_floor: f64,
    threads: usize,
    plans: &mut KernelPlans<S>,
) -> NumericStats {
    build_plans(bm, tg, selector, plans);
    // SAFETY: the store is `bm`'s own, one block per id, and `Owner::All`
    // reaches every id through it; the engine is dropped before this
    // function returns, and until then `bm` is only read for its
    // coordinates, never its blocks.
    let blocks = unsafe { SharedBlocks::new(Owner::All, bm.blocks_mut().as_mut_ptr(), &mut []) };
    let engine = Engine::new(bm, blocks, tg, selector, pivot_floor, plans);
    let abort = AtomicBool::new(false);
    let workers = if threads <= 1 {
        vec![engine.work(&abort)]
    } else {
        std::thread::scope(|s| {
            join_all((0..threads).map(|_| s.spawn(|| engine.work(&abort))).collect())
        })
    };
    let mut stats = NumericStats { flops: tg.total_flops(), ..Default::default() };
    for w in &workers {
        stats.getrf_time += w.times[0];
        stats.trsm_time += w.times[1];
        stats.ssssm_time += w.times[2];
        stats.perturbed_pivots += w.perturbed;
        let TaskCounts { getrf, gessm, tstrf, ssssm } = w.tasks;
        for (total, n) in stats.kernel_counts.iter_mut().zip([getrf, gessm, tstrf, ssssm]) {
            *total += n as usize;
        }
    }
    stats
}

/// The plan policy of every executor, run once per factorisation before
/// any task does. A pool's first run builds nothing: every task then
/// takes the dense-tile lane or the tree's variant, bitwise what its plan
/// would replay, so a caller who factors once pays for no plan. From the
/// second run on it builds, for every task, the plan the selector's gates
/// admit, so the pool exists before any task runs. Patterns are fixed by
/// the symbolic phase, so the unfactored blocks give the same plans a
/// task would build mid-factorisation; tasks whose planned gate is closed
/// (the calibrated cuts send them to the dense-addressed variants) get no
/// plan, keeping the pool's memory proportional to the planned working
/// set. It reads the patterns of `bm`'s blocks, so it runs before any
/// engine over `bm`'s store does.
pub(crate) fn build_plans<S: Scalar>(
    bm: &BlockMatrix<S>,
    tg: &TaskGraph,
    selector: &KernelSelector,
    plans: &mut KernelPlans<S>,
) {
    if !plans.serve_run() {
        return;
    }
    plans.build(selector, |add| {
        for k in 0..bm.nblk() {
            let diag = bm.block(bm.block_id(k, k).expect("diag exists"));
            add(PlanTask::Getrf { slot: k, a: diag });
            for &j in &tg.u_panels[k] {
                let id = bm.block_id(k, j).expect("panel exists");
                add(PlanTask::Gessm { slot: id, diag_lu: diag, b: bm.block(id) });
            }
            for &i in &tg.l_panels[k] {
                let id = bm.block_id(i, k).expect("panel exists");
                add(PlanTask::Tstrf { slot: id, diag_lu: diag, b: bm.block(id) });
            }
        }
        for (n, &(i, j, k)) in tg.ssssm.iter().enumerate() {
            let a = bm.block(bm.block_id(i, k).expect("L operand"));
            let b = bm.block(bm.block_id(k, j).expect("U operand"));
            let (flops, c) = (tg.ssssm_flops[n], bm.block(tg.block_of(bm.num_blocks() + n)));
            add(PlanTask::Ssssm { slot: n, flops, a, b, c });
        }
    });
}

impl<'a, S: Scalar> Engine<'a, S> {
    /// Arms a run of the tasks the owner of `blocks` owns over that view
    /// (blocks indexed as in `bm`, whose patterns they share), with their
    /// plans already in `plans` ([`build_plans`]): sets every countdown
    /// from [`TaskGraph::wait`] and queues the owned tasks that wait on
    /// nothing.
    pub(crate) fn new(
        bm: &'a BlockMatrix<S>,
        blocks: SharedBlocks<'a, S>,
        tg: &'a TaskGraph,
        selector: &'a KernelSelector,
        pivot_floor: f64,
        plans: &'a KernelPlans<S>,
    ) -> Self {
        let owner = blocks.owner;
        let seeds = (0..bm.num_blocks())
            .filter(|&id| tg.wait[id] == 0 && owner.owns(id))
            .map(|id| PrioritisedTask::new(tg.task_at(bm, id), id))
            .collect();
        let owned = (0..tg.wait.len()).filter(|&s| owner.owns(tg.block_of(s))).count();
        Engine {
            bm,
            tg,
            selector,
            plans,
            pivot_floor,
            blocks,
            waits: tg.wait.iter().map(|&w| AtomicU32::new(w)).collect(),
            ready: Mutex::new(seeds),
            remaining: AtomicUsize::new(owned),
        }
    }

    /// Owned tasks that have not finished.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Whether the task in `slot` still waits on a task or a block.
    pub(crate) fn waiting(&self, slot: usize) -> bool {
        self.waits[slot].load(Ordering::Relaxed) > 0
    }

    /// Queues the tasks `w` freed, then pops the lowest ready task.
    pub(crate) fn pop(&self, w: &mut Worker<S>) -> Option<PrioritisedTask> {
        let mut ready = self.ready.lock().expect("ready heap poisoned");
        ready.extend(w.freed.drain(..));
        ready.pop()
    }

    /// Runs a popped task on `w`'s account, then counts down what it
    /// releases. Returns the task.
    pub(crate) fn run(&self, w: &mut Worker<S>, ready: PrioritisedTask) -> Task {
        let (task, slot) = (ready.task(), ready.slot);
        let t0 = Instant::now();
        self.execute(task, slot, w);
        w.times[usize::from(task.class_rank())] += t0.elapsed();
        self.release(w, slot);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        task
    }

    /// Counts down the owned tasks that the finished task `slot` releases
    /// — whether it ran here or, on a rank, its block was received — and
    /// frees on `w` each one that reaches zero.
    pub(crate) fn release(&self, w: &mut Worker<S>, slot: usize) {
        for &s in self.tg.releases(slot) {
            let s = s as usize;
            if self.blocks.owner.owns(self.tg.block_of(s))
                && self.waits[s].fetch_sub(1, Ordering::AcqRel) == 1
            {
                w.freed.push(PrioritisedTask::new(self.tg.task_at(self.bm, s), s));
            }
        }
    }

    /// Owned block `id` once its panel op has run, between tasks: a rank
    /// ships it from here.
    pub(crate) fn finished(&mut self, id: usize) -> &CscMatrix<S> {
        debug_assert!(id < self.bm.num_blocks() && self.blocks.owner.owns(id));
        // SAFETY: `&mut self` proves no worker holds the engine, so no
        // task is running; `id` is a block id whose panel op, its last
        // write, has run.
        unsafe { self.blocks.get(id) }
    }

    /// Stores remote block `id`'s received `values` in the rank's table,
    /// between tasks. The first receive gives the table's `0 × 0`
    /// placeholder the block's pattern, copied from the store; every later
    /// one — in the same run or any later refactorisation — copies values
    /// into that shell. Returns whether the shell was already there.
    pub(crate) fn store_received(&mut self, id: usize, values: &[S]) -> bool {
        debug_assert!(id < self.bm.num_blocks() && !self.blocks.owner.owns(id));
        // SAFETY: `&mut self` proves no task is running; the owner does
        // not own `id`, so its slot is in the rank's own table, which only
        // this engine reaches.
        let slot = unsafe { self.blocks.get_mut(id) };
        let cached = slot.ncols() > 0;
        if !cached {
            // SAFETY: `values` arrived in a message the block's owner sent
            // after its panel op, the block's last write in the run, so
            // that op happens before this read of the block in the store,
            // and the owner only reads the block from then on.
            *slot = unsafe { &*self.blocks.store.add(id) }.with_constant_values(S::ZERO);
        }
        slot.values_mut().copy_from_slice(values);
        cached
    }

    /// One worker of the multicore mode: pop, run, repeat until every
    /// task has run or another worker's task panicked.
    fn work(&self, abort: &AtomicBool) -> Worker<S> {
        let _abort_on_unwind = AbortOnUnwind(abort);
        let mut w = Worker::new(self.bm.nb(), false);
        while self.remaining() > 0 && !abort.load(Ordering::Relaxed) {
            match self.pop(&mut w) {
                Some(ready) => {
                    self.run(&mut w, ready);
                }
                None => std::thread::yield_now(),
            }
        }
        w
    }

    /// Runs the kernel of `task`, whose countdown just reached zero.
    fn execute(&self, task: Task, slot: usize, w: &mut Worker<S>) {
        let (bm, tg, sel, plans) = (self.bm, self.tg, self.selector, self.plans);
        let id = tg.block_of(slot);
        let scratch = &mut w.scratch;
        match task {
            Task::Getrf { k } => {
                // SAFETY: every update onto (k, k) has finished and every
                // reader of it waits on this GETRF.
                let blk = unsafe { self.blocks.get_mut(id) };
                let route = plans.route_getrf(sel, k, blk);
                let fl = tg.panel_flops[id];
                w.perturbed += w.kernels.getrf(route, blk, scratch, self.pivot_floor, fl);
                w.tasks.getrf += 1;
            }
            Task::Gessm { k, .. } => {
                let diag_id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: GETRF(k) released this task, so the diagonal is
                // final; the panel's updates have finished and its
                // readers wait on this task.
                let (diag, blk) = unsafe { (self.blocks.get(diag_id), self.blocks.get_mut(id)) };
                let fl = tg.panel_flops[id];
                w.kernels.gessm(plans.route_gessm(sel, id, fl, diag, blk), diag, blk, scratch, fl);
                w.tasks.gessm += 1;
            }
            Task::Tstrf { k, .. } => {
                let diag_id = bm.block_id(k, k).expect("diag exists");
                // SAFETY: as for GESSM.
                let (diag, blk) = unsafe { (self.blocks.get(diag_id), self.blocks.get_mut(id)) };
                let fl = tg.panel_flops[id];
                w.kernels.tstrf(plans.route_tstrf(sel, id, fl, diag, blk), diag, blk, scratch, fl);
                w.tasks.tstrf += 1;
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
                w.kernels.ssssm(plans.route_ssssm(sel, g, fl, a, c), a, b, c, scratch, fl);
                w.tasks.ssssm += 1;
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

            // The pool's first run is plan-free; the second builds every
            // admitted plan, eagerly, before the workers run; a third
            // reuses the pool without rebuilding. All three give the
            // sweep's bits.
            let mut plans = empty_plans(&bm0, &tg);
            let mut builds = Vec::new();
            for run in 0..3 {
                let mut par_bm = bm0.clone();
                factor_shared_planned(&mut par_bm, &tg, &sel, 0.0, threads, &mut plans);
                assert_eq!(par_bm.to_csc().values(), want.values(), "threads={threads} run={run}");
                builds.push(plans.stats().builds);
            }
            assert_eq!(builds[0], 0, "threads={threads}: the first run planned");
            assert!(builds[1] > 0);
            assert_eq!(builds[2], builds[1]);

            // Closed planned gates: same factor from the tree's variants
            // alone, and nothing is ever built.
            let closed = KernelSelector::new(nnz, Thresholds::unplanned());
            let mut none = empty_plans(&bm0, &tg);
            for _ in 0..2 {
                let mut plain_bm = bm0.clone();
                factor_shared_planned(&mut plain_bm, &tg, &closed, 0.0, threads, &mut none);
                assert_eq!(
                    plain_bm.to_csc().values(),
                    want.values(),
                    "threads={threads}: unplanned"
                );
            }
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

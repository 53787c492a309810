//! The multi-rank numeric factorisation: threads as MPI ranks and block
//! messages over mailboxes, under the paper's synchronisation-free
//! schedule (§4.4).
//!
//! A rank is the countdown engine's one-worker instance
//! ([`crate::shared`]) over the blocks it owns, counting down the tasks
//! it owns; this module is the message edge around it. Each rank
//! drains its mailbox without blocking while any kernel is runnable, runs
//! its runnable kernels in the engine's step-major order (lowest
//! elimination step first, GETRF before panel solves before SSSSM, then
//! target coordinates), ships finished blocks to exactly the ranks whose
//! pending kernels consume them, and blocks on the mailbox only when
//! nothing is runnable — that blocked time is the measured
//! synchronisation cost. Ranks order their work by dependencies alone:
//! there is no step barrier.
//!
//! Each rank factors the blocks it owns in place, in the solver's one
//! block store (a process stores the blocks it computes on, §4.2). Owned
//! sets are disjoint, so ranks write disjoint blocks of that store, and a
//! rank reads a remote operand only from the copy its message delivered
//! into the rank's own table — the discipline an MPI implementation is
//! forced into.
//!
//! Two properties make the executor testable under adversarial message
//! timing (see `pangulu_comm::fault` and `crate::trace_check`):
//!
//! * **Deterministic update order** — the SSSSM updates targeting one
//!   block are applied one at a time in ascending elimination-step order,
//!   regardless of the order their operands arrive (the rule every
//!   executor in this crate follows). Floating-point addition is not
//!   associative, so this is what makes the computed factors *bitwise*
//!   identical across runs, grids, and fault schedules.
//! * **Bounded stalls** — a rank that makes no progress for
//!   [`FactorConfig::stall_timeout`] aborts the whole run with a
//!   structured [`DistError`] naming the blocked rank and the exact
//!   missing operand blocks, instead of hanging. A message a fault plan
//!   loses ([`FaultPlan::with_loss`]) therefore surfaces as a diagnosable
//!   error.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pangulu_comm::{BlockMsg, BlockRole, DeliveryRecord, FaultPlan, Mailbox, MailboxSet};
use pangulu_kernels::select::KernelSelector;
use pangulu_kernels::{KernelPlans, PlanStats};
use pangulu_metrics::{MemStats, RankMetrics, RunReport};
use pangulu_sparse::{CscMatrix, Scalar};

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;
use crate::shared::{build_plans, join_all, AbortOnUnwind, Engine, Owner, SharedBlocks, Worker};
use crate::task::{PrioritisedTask, Task, TaskGraph};

/// Full configuration of one distributed factorisation run.
#[derive(Debug, Clone)]
pub struct FactorConfig {
    /// Optional seeded fault plan applied to every message.
    pub fault: Option<FaultPlan>,
    /// How long a rank may sit with nothing runnable and no incoming
    /// messages before the run aborts with a [`DistError`].
    pub stall_timeout: Duration,
    /// Record per-kernel [`TraceEvent`]s.
    pub traced: bool,
    /// Record per-variant kernel tallies and model FLOPs into the
    /// [`RunReport`]. On, each kernel call costs two clock reads and one
    /// tally add; its model FLOPs are the task graph's analysis-time
    /// counts, never re-derived from block patterns. Off, every kernel
    /// call delegates straight to the implementation; the always-on
    /// busy/sync accounting and communication counters are kept either
    /// way.
    pub metrics: bool,
}

impl Default for FactorConfig {
    fn default() -> Self {
        FactorConfig {
            fault: None,
            stall_timeout: Duration::from_secs(60),
            traced: false,
            metrics: true,
        }
    }
}

impl FactorConfig {
    /// Adds a fault plan.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the stall timeout.
    pub fn with_stall_timeout(mut self, t: Duration) -> Self {
        self.stall_timeout = t;
        self
    }

    /// Enables kernel tracing.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Toggles per-variant kernel metering (on by default).
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }
}

/// An operand a stalled rank was still waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingDep {
    /// The factored diagonal block `k` gating the panel op of `block`.
    Diag {
        /// Elimination step of the missing diagonal factor.
        k: usize,
        /// The blocked panel block.
        block: (usize, usize),
    },
    /// The L-panel operand `(i, k)` of an SSSSM update on `target`.
    LOperand {
        /// Block row of the missing operand.
        i: usize,
        /// Elimination step of the missing operand.
        k: usize,
        /// The blocked SSSSM target block.
        target: (usize, usize),
    },
    /// The U-panel operand `(k, j)` of an SSSSM update on `target`.
    UOperand {
        /// Elimination step of the missing operand.
        k: usize,
        /// Block column of the missing operand.
        j: usize,
        /// The blocked SSSSM target block.
        target: (usize, usize),
    },
}

impl fmt::Display for MissingDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MissingDep::Diag { k, block } => {
                write!(f, "diagonal factor ({k},{k}) for panel block {block:?}")
            }
            MissingDep::LOperand { i, k, target } => {
                write!(f, "L-panel block ({i},{k}) for SSSSM target {target:?}")
            }
            MissingDep::UOperand { k, j, target } => {
                write!(f, "U-panel block ({k},{j}) for SSSSM target {target:?}")
            }
        }
    }
}

/// Structured diagnosis of a stalled distributed run.
#[derive(Debug, Clone)]
pub struct DistError {
    /// The rank that first exceeded the stall timeout.
    pub rank: usize,
    /// The lowest elimination step of a task the rank owns that was still
    /// waiting.
    pub step: usize,
    /// Tasks the rank still owed when it gave up.
    pub remaining: usize,
    /// How long the rank waited without progress.
    pub waited: Duration,
    /// The operand blocks it was waiting for (capped).
    pub missing: Vec<MissingDep>,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} stalled for {:.1?} at step {} with {} tasks remaining",
            self.rank, self.waited, self.step, self.remaining
        )?;
        if !self.missing.is_empty() {
            write!(f, "; missing: ")?;
            for (n, m) in self.missing.iter().enumerate() {
                if n > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{m}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for DistError {}

/// Aggregated statistics of one distributed factorisation.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Wall-clock time of the numeric phase.
    pub wall_time: Duration,
    /// Per-rank time spent executing kernels.
    pub busy: Vec<Duration>,
    /// Per-rank time spent blocked waiting for messages.
    pub sync_wait: Vec<Duration>,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Statically perturbed pivots across ranks.
    pub perturbed_pivots: usize,
    /// Blocking receives that timed out across ranks.
    pub recv_timeouts: u64,
}

impl DistStats {
    /// Mean per-rank synchronisation wait.
    pub fn mean_sync_wait(&self) -> Duration {
        if self.sync_wait.is_empty() {
            return Duration::ZERO;
        }
        self.sync_wait.iter().sum::<Duration>() / self.sync_wait.len() as u32
    }
}

/// One executed kernel in the timeline of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Executing rank.
    pub rank: usize,
    /// The kernel that ran.
    pub task: Task,
    /// Start offset from the beginning of the numeric phase.
    pub start: Duration,
    /// End offset. Recorded *before* the produced block is shipped, so a
    /// consumer's `start` on any rank is always `>=` its producer's `end`.
    pub end: Duration,
}

/// Everything a checked factorisation run hands back.
#[derive(Debug, Clone, Default)]
pub struct FactorRun {
    /// Aggregated statistics (a legacy view derived from
    /// [`FactorRun::report`]).
    pub stats: DistStats,
    /// The per-rank structured metrics of the run: sync-wait vs compute
    /// breakdown, tasks by kind, per-variant kernel tallies (when
    /// [`FactorConfig::metrics`] is on), per-edge communication, and the
    /// symbolic FLOP prediction to compare observed FLOPs against.
    pub report: RunReport,
    /// Kernel timeline (empty unless [`FactorConfig::traced`]).
    pub trace: Vec<TraceEvent>,
    /// Every message handed to the transport, sender-side view.
    pub sent: Vec<DeliveryRecord>,
    /// Every message delivered, receiver-side view.
    pub received: Vec<DeliveryRecord>,
}

/// Factorises `bm` in place across `owners.num_ranks()` rank threads
/// under `cfg` (fault plan, stall timeout, tracing, metering) and
/// returns the stats, kernel timeline, and message logs. On a stall —
/// e.g. a message the fault plan loses — every rank shuts
/// down cooperatively and the first structured [`DistError`] is
/// returned; `bm` then holds partly factored values, so scatter the
/// matrix into it again before the next run.
///
/// Builds a transient [`NumericWorkspace`] for the run, whose plan pool
/// serves this one run and so builds no plan; callers that factor the
/// same pattern repeatedly should build the workspace once and call
/// [`factor_distributed_cached`] instead.
pub fn factor_distributed_checked<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    owners: &OwnerMap,
    selector: &KernelSelector,
    pivot_floor: f64,
    cfg: &FactorConfig,
) -> Result<FactorRun, DistError> {
    let mut ws = NumericWorkspace::new(bm, tg, owners);
    factor_distributed_cached(bm, tg, owners, selector, pivot_floor, cfg, &mut ws)
}

/// As [`factor_distributed_checked`], but with the pattern-dependent
/// per-rank executor state supplied by the caller. The workspace caches
/// everything a numeric-only refactorisation can reuse:
///
/// * the receive-side pattern shells: remote blocks delivered in an
///   earlier run keep their CSC structure, so every steady-state receive
///   is a values-only memcpy ([`MemStats::pattern_cache_hits`]);
/// * the kernel plans, read by every rank: none on the workspace's first
///   run, then built by the second for every task the selector's gates
///   admit (the shared executor's policy, `build_plans`);
/// * each block's remote destinations.
///
/// Owned blocks are factored in place in `bm`; the workspace holds no
/// copy of them. The run is bitwise identical to a fresh
/// [`factor_distributed_checked`] on the same `bm` values — reuse only
/// skips pattern-dependent setup, never changes the deterministic
/// ascending-step application order. On [`DistError`] `bm` holds partly
/// factored values and the workspace stays usable: a received shell only
/// ever holds values its next receive overwrites, and every flag is reset
/// when a run starts. Scatter the matrix into `bm` again and run.
pub fn factor_distributed_cached<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    owners: &OwnerMap,
    selector: &KernelSelector,
    pivot_floor: f64,
    cfg: &FactorConfig,
    ws: &mut NumericWorkspace<S>,
) -> Result<FactorRun, DistError> {
    let p = owners.num_ranks();
    assert_eq!(ws.ranks.len(), p, "workspace was built for a different rank count");
    assert_eq!(ws.num_blocks, bm.num_blocks(), "workspace was built for a different pattern");
    let start = Instant::now();
    build_plans(bm, tg, selector, &mut ws.plans);
    let store = bm.blocks_mut().as_mut_ptr();
    let bm: &BlockMatrix<S> = bm;
    let mailboxes = cfg
        .fault
        .clone()
        .map_or_else(|| MailboxSet::<S>::new(p), |plan| MailboxSet::with_faults(p, plan))
        .into_mailboxes();
    let ctx = RunCtx {
        bm,
        tg,
        owners,
        dest_ptr: &ws.dest_ptr,
        dests: &ws.dests,
        plans: &ws.plans,
        selector,
        pivot_floor,
        cfg,
        abort: AtomicBool::new(false),
        first_err: Mutex::new(None),
        trace_origin: Some(start).filter(|_| cfg.traced),
    };
    let rank_outputs = std::thread::scope(|s| {
        let ctx = &ctx;
        let handles = (mailboxes.into_iter().zip(ws.ranks.iter_mut()))
            .map(|(mb, st)| {
                // SAFETY: `store` is `bm`'s block store and the table has
                // one slot per block id (`RankState::new`); both outlive
                // the scope. Each rank's engine owns a disjoint set of ids
                // and reaches the rest only through its own table, and
                // from here to the end of the scope `bm` is read only for
                // its coordinates and `run_rank` leaves `st.table` alone.
                let blocks = unsafe {
                    SharedBlocks::new(Owner::Rank(owners, st.rank), store, &mut st.table)
                };
                s.spawn(move || run_rank(ctx, mb, st, blocks))
            })
            .collect();
        join_all(handles)
    });

    if let Some(err) = ctx.first_err.into_inner().expect("error slot poisoned") {
        return Err(err);
    }

    let mut run = FactorRun {
        report: RunReport {
            ranks: p,
            wall_nanos: duration_nanos(start.elapsed()),
            predicted_flops: if cfg.metrics { tg.total_flops() } else { 0.0 },
            scalar_width: S::WIDTH as u64,
            precision_fallbacks: 0,
            probe_skips: 0,
            per_rank: Vec::with_capacity(p),
        },
        ..Default::default()
    };
    let mut trace = Vec::new();
    for out in rank_outputs {
        run.report.per_rank.push(out.metrics);
        trace.extend(out.trace);
        run.sent.extend(out.sent);
        run.received.extend(out.received);
    }
    run.report.per_rank.sort_by_key(|r| r.rank);
    trace.sort_by_key(|e| e.start);
    run.trace = trace;
    run.stats = stats_from_report(&run.report);
    Ok(run)
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Derives the legacy aggregated view from the per-rank report.
fn stats_from_report(report: &RunReport) -> DistStats {
    let mut stats = DistStats {
        wall_time: Duration::from_nanos(report.wall_nanos),
        busy: vec![Duration::ZERO; report.ranks],
        sync_wait: vec![Duration::ZERO; report.ranks],
        ..Default::default()
    };
    for r in &report.per_rank {
        stats.busy[r.rank] = Duration::from_nanos(r.busy_nanos);
        stats.sync_wait[r.rank] = Duration::from_nanos(r.sync_wait_nanos);
        stats.messages += r.comm.msgs_sent;
        stats.bytes += r.comm.bytes_sent;
        stats.perturbed_pivots += r.perturbed_pivots as usize;
        stats.recv_timeouts += r.comm.recv_timeouts;
    }
    stats
}

/// What every rank of one run reads.
struct RunCtx<'a, S: Scalar> {
    bm: &'a BlockMatrix<S>,
    tg: &'a TaskGraph,
    owners: &'a OwnerMap,
    /// Block `id`'s remote destinations are
    /// `dests[dest_ptr[id]..dest_ptr[id + 1]]` ([`NumericWorkspace`]).
    dest_ptr: &'a [usize],
    dests: &'a [usize],
    plans: &'a KernelPlans<S>,
    selector: &'a KernelSelector,
    pivot_floor: f64,
    cfg: &'a FactorConfig,
    abort: AtomicBool,
    /// The first rank's stall diagnosis; it aborts the run.
    first_err: Mutex<Option<DistError>>,
    /// When set, kernels are recorded relative to this origin.
    trace_origin: Option<Instant>,
}

/// What one rank hands back; the blocks it factored are in `bm`.
struct RankOutput {
    metrics: RankMetrics,
    trace: Vec<TraceEvent>,
    sent: Vec<DeliveryRecord>,
    received: Vec<DeliveryRecord>,
}

/// One rank's pattern-dependent executor state, built once per
/// (pattern, grid, owner map) and reusable across numeric-only
/// refactorisations. See [`NumericWorkspace`].
struct RankState<S: Scalar> {
    rank: usize,
    /// The remote blocks' copies, indexed by block id: the rank's engine
    /// reads a block it does not own from here, and factors the blocks it
    /// owns in `bm` itself, so their slots stay empty `0 × 0`
    /// placeholders. A remote block's slot stays one until its first
    /// receive gives it the replicated pattern; every later receive — in
    /// the same run or any later refactorisation — memcpys values into
    /// that shell (counted as [`MemStats::pattern_cache_hits`]).
    table: Vec<CscMatrix<S>>,
    /// Operand availability (owned-finished or received), by block id —
    /// read only by the stall diagnosis.
    avail: Vec<bool>,
}

impl<S: Scalar> RankState<S> {
    fn new(nblocks: usize, rank: usize) -> Self {
        RankState {
            rank,
            table: (0..nblocks).map(|_| CscMatrix::zeros(0, 0)).collect(),
            avail: vec![false; nblocks],
        }
    }
}

/// The cached executor state of a distributed factorisation: one
/// `RankState` per rank (the remote blocks' pattern shells), the kernel
/// plans every rank reads and each block's remote destinations. It holds
/// no copy of the blocks a rank owns: ranks factor those in `bm`. Build
/// it once per (pattern, grid, owner map) and pass it to
/// [`factor_distributed_cached`] for every same-pattern factorisation;
/// steady-state runs then do no pattern-dependent setup at all.
pub struct NumericWorkspace<S: Scalar = f64> {
    ranks: Vec<RankState<S>>,
    /// One pool for every rank: empty for the first run, built before the
    /// ranks of the second start, then only read, and — like the rest of
    /// this state — reused verbatim across numeric-only refactorisations.
    plans: KernelPlans<S>,
    num_blocks: usize,
    /// Offsets into `dests`, one run per block id.
    dest_ptr: Vec<usize>,
    /// Per block, the ranks other than its owner that it is shipped to:
    /// [`TaskGraph::destinations`] without the owner, ascending.
    dests: Vec<usize>,
}

impl<S: Scalar> NumericWorkspace<S> {
    /// Builds the per-rank state for `owners.num_ranks()` ranks over the
    /// pattern of `bm`.
    pub fn new(bm: &BlockMatrix<S>, tg: &TaskGraph, owners: &OwnerMap) -> Self {
        let ranks = (0..owners.num_ranks()).map(|r| RankState::new(bm.num_blocks(), r)).collect();
        let mut dest_ptr = Vec::with_capacity(bm.num_blocks() + 1);
        let mut dests = Vec::new();
        dest_ptr.push(0);
        for id in 0..bm.num_blocks() {
            let owner = owners.owner_of(id);
            dests.extend(tg.destinations(owners, id).into_iter().filter(|&r| r != owner));
            dest_ptr.push(dests.len());
        }
        dests.shrink_to_fit();
        let plans = crate::seq::empty_plans(bm, tg);
        NumericWorkspace { ranks, plans, num_blocks: bm.num_blocks(), dest_ptr, dests }
    }

    /// Number of ranks the workspace was built for.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Memory and build accounting of the kernel plans.
    pub fn plan_stats(&self) -> PlanStats {
        self.plans.stats()
    }
}

/// One rank's thread: the countdown engine's one-worker instance over
/// `blocks` — the rank's owned blocks in `bm` and its table of remote
/// copies — counting down the tasks the rank owns, inside the rank's
/// message edge.
fn run_rank<'a, S: Scalar>(
    ctx: &'a RunCtx<'a, S>,
    mailbox: Mailbox<S>,
    st: &'a mut RankState<S>,
    blocks: SharedBlocks<'a, S>,
) -> RankOutput {
    let _abort_on_unwind = AbortOnUnwind(&ctx.abort);
    let RankState { rank, avail, .. } = st;
    let rank = *rank;
    debug_assert_eq!(mailbox.rank(), rank, "rank state handed to the wrong mailbox");
    avail.fill(false);
    let engine = Engine::new(ctx.bm, blocks, ctx.tg, ctx.selector, ctx.pivot_floor, ctx.plans);
    let edge = Rank {
        ctx,
        rank,
        engine,
        worker: Worker::new(ctx.bm.nb(), ctx.cfg.metrics),
        mailbox,
        avail,
        mem: MemStats::default(),
        blocked_recvs: 0,
        max_idle: Duration::ZERO,
        trace: Vec::new(),
    };
    let mut out = edge.run();
    // End-of-run gauges of the one pool, cumulative across every run that
    // shared the workspace (plans persist across refactorisations), on
    // rank 0's row so that the report's totals count the pool once.
    if rank == 0 {
        let ps = ctx.plans.stats();
        out.metrics.mem.plan_bytes = ps.bytes;
        out.metrics.mem.plan_build_ns = ps.build_ns;
    }
    out
}

/// The message edge of one rank around its engine: the mailbox drain and
/// blocking receive, shipping finished panel blocks, the stall diagnosis
/// and the trace.
struct Rank<'a, S: Scalar> {
    ctx: &'a RunCtx<'a, S>,
    rank: usize,
    engine: Engine<'a, S>,
    /// The engine's one worker: scratch, kernel meter and account.
    worker: Worker<S>,
    mailbox: Mailbox<S>,
    avail: &'a mut [bool],
    /// Hot-path copy/allocation accounting.
    mem: MemStats,
    /// Times this rank entered the blocking-receive path.
    blocked_recvs: u64,
    /// Longest observed no-progress streak.
    max_idle: Duration,
    trace: Vec<TraceEvent>,
}

impl<S: Scalar> Rank<'_, S> {
    /// Whether block `(bi, bj)` is available as an operand (owned and
    /// finished, or received).
    fn avail_at(&self, bi: usize, bj: usize) -> bool {
        self.ctx.bm.block_id(bi, bj).is_some_and(|id| self.avail[id])
    }

    fn run(mut self) -> RankOutput {
        let stall_timeout = self.ctx.cfg.stall_timeout;
        let slice = Duration::from_millis(50).min(stall_timeout);
        let mut idle = Duration::ZERO;
        while !self.ctx.abort.load(AtomicOrdering::Relaxed) {
            // Drain the mailbox without blocking (Fig. 10, step 1).
            while let Some(msg) = self.mailbox.try_recv() {
                self.receive(msg);
                idle = Duration::ZERO;
            }
            if let Some(ready) = self.engine.pop(&mut self.worker) {
                idle = Duration::ZERO;
                self.run_task(ready);
                continue;
            }
            if self.engine.remaining() == 0 {
                // Hand any still-buffered sends over before leaving.
                self.mailbox.flush_pending();
                break;
            }
            // Nothing runnable: release buffered sends, then block on the
            // mailbox (the measured synchronisation wait, Fig. 10 step 3a).
            self.mailbox.flush_pending();
            self.blocked_recvs += 1;
            match self.mailbox.recv(slice) {
                Some(m) => {
                    self.receive(m);
                    idle = Duration::ZERO;
                }
                None => {
                    idle += slice;
                    self.max_idle = self.max_idle.max(idle);
                    if idle >= stall_timeout {
                        self.report_stall(idle);
                        break;
                    }
                }
            }
        }

        self.worker.kernels.add_counts_to(&mut self.mem);
        let metrics = RankMetrics {
            rank: self.rank,
            busy_nanos: duration_nanos(self.worker.times.iter().sum()),
            sync_wait_nanos: duration_nanos(self.mailbox.sync_wait()),
            blocked_recvs: self.blocked_recvs,
            max_idle_nanos: duration_nanos(self.max_idle),
            perturbed_pivots: self.worker.perturbed as u64,
            tasks: self.worker.tasks,
            mem: self.mem,
            comm: self.mailbox.metrics(),
            kernels: self.worker.kernels.into_tally(),
        };
        let (sent, received) = self.mailbox.into_logs();
        RankOutput { metrics, trace: self.trace, sent, received }
    }

    /// Runs a popped task on the engine, records it, and ships the block
    /// a panel op finished.
    fn run_task(&mut self, ready: PrioritisedTask) {
        let trace_start = self.ctx.trace_origin.map(|origin| origin.elapsed());
        let task = self.engine.run(&mut self.worker, ready);
        // The trace event must be on the record *before* the result is
        // shipped: otherwise a remote consumer can receive the block,
        // start, and log a start time earlier than this producer's end.
        if let (Some(origin), Some(start)) = (self.ctx.trace_origin, trace_start) {
            self.trace.push(TraceEvent { rank: self.rank, task, start, end: origin.elapsed() });
        }
        let role = match task {
            Task::Getrf { .. } => BlockRole::DiagFactor,
            Task::Gessm { .. } => BlockRole::UPanel,
            Task::Tstrf { .. } => BlockRole::LPanel,
            Task::Ssssm { .. } => return,
        };
        // A panel op's slot is its block's id.
        self.avail[ready.slot] = true;
        self.ship(ready.slot, role);
    }

    /// Builds the stall diagnosis, publishes it (first error wins), and
    /// raises the abort flag so every rank shuts down.
    fn report_stall(&mut self, waited: Duration) {
        let err = DistError {
            rank: self.rank,
            step: self.lowest_unfinished_step(),
            remaining: self.engine.remaining(),
            waited,
            missing: self.diagnose_missing(8),
        };
        self.ctx.first_err.lock().expect("error slot poisoned").get_or_insert(err);
        self.ctx.abort.store(true, AtomicOrdering::Relaxed);
    }

    /// The lowest elimination step of an owned task still waiting. At a
    /// stall nothing is runnable, so every unfinished owned task waits.
    fn lowest_unfinished_step(&self) -> usize {
        let (bm, tg) = (self.ctx.bm, self.ctx.tg);
        (0..tg.wait.len())
            .filter(|&s| {
                self.engine.waiting(s) && self.ctx.owners.owner_of(tg.block_of(s)) == self.rank
            })
            .map(|s| tg.task_at(bm, s).step())
            .min()
            .unwrap_or(0)
    }

    /// Lists the operand blocks this rank is still waiting for, capped.
    fn diagnose_missing(&self, cap: usize) -> Vec<MissingDep> {
        let (bm, tg, nblocks) = (self.ctx.bm, self.ctx.tg, self.ctx.bm.num_blocks());
        let owned = |id: usize| self.ctx.owners.owner_of(id) == self.rank;
        // Per owned target, the step of its lowest update still waiting:
        // nothing is runnable, so the updates before it have all run.
        let mut next_update: Vec<Option<usize>> = vec![None; nblocks];
        for (g, &(_, _, k)) in tg.ssssm.iter().enumerate() {
            let cid = tg.block_of(nblocks + g);
            if self.engine.waiting(nblocks + g) && owned(cid) {
                next_update[cid].get_or_insert(k);
            }
        }
        let mut missing = Vec::new();
        for id in (0..nblocks).filter(|&id| self.engine.waiting(id) && owned(id)) {
            if missing.len() >= cap {
                break;
            }
            let (bi, bj) = bm.block_coords(id);
            let step = bi.min(bj);
            if let Some(k) = next_update[id] {
                // Outstanding updates: the next one's operands block us.
                if !self.avail_at(bi, k) {
                    missing.push(MissingDep::LOperand { i: bi, k, target: (bi, bj) });
                }
                if missing.len() < cap && !self.avail_at(k, bj) {
                    missing.push(MissingDep::UOperand { k, j: bj, target: (bi, bj) });
                }
            } else if bi != bj && !self.avail_at(step, step) {
                // Updates done, panel still waiting: the diagonal is missing.
                missing.push(MissingDep::Diag { k: step, block: (bi, bj) });
            }
        }
        missing
    }

    /// Ships finished block `id` to every other rank that owns a task it
    /// releases, in ascending rank order.
    fn ship(&mut self, id: usize, role: BlockRole) {
        let ctx = self.ctx;
        let (bi, bj) = ctx.bm.block_coords(id);
        // Serialise the block once for the whole fan-out; the Arc clones
        // handed to each mailbox share the buffer. When every dependent is
        // local no payload is materialised at all. The mailbox still
        // charges full per-edge bytes — the wire cost model is unchanged.
        let mut payload: Option<Arc<[S]>> = None;
        for &dest in &ctx.dests[ctx.dest_ptr[id]..ctx.dest_ptr[id + 1]] {
            let values = match &payload {
                Some(p) => p.clone(),
                None => {
                    let vals = self.engine.finished(id).values();
                    self.mem.payload_allocs += 1;
                    self.mem.bytes_copied += std::mem::size_of_val(vals) as u64;
                    payload.insert(Arc::from(vals)).clone()
                }
            };
            self.mailbox.send(dest, BlockMsg { bi, bj, role, values });
        }
    }

    /// A finished remote block arrived: store it in the table, then count
    /// down here what its panel op released on its owner.
    fn receive(&mut self, msg: BlockMsg<S>) {
        let bm = self.ctx.bm;
        let id = bm.block_id(msg.bi, msg.bj).expect("pattern of shipped block is replicated");
        if self.engine.store_received(id, &msg.values) {
            self.mem.pattern_cache_hits += 1;
        }
        self.mem.bytes_copied += (msg.values.len() * S::WIDTH) as u64;
        self.avail[id] = true;
        self.engine.release(&mut self.worker, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
    use pangulu_comm::ProcessGrid;
    use pangulu_kernels::select::Thresholds;
    use pangulu_kernels::tile::is_full;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn build(n: usize, nb: usize, seed: u64) -> (CscMatrix, BlockMatrix, TaskGraph) {
        let a = ensure_diagonal(&gen::random_sparse(n, 0.1, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        (a, bm, tg)
    }

    /// Holds both owner maps — the paper's block-cyclic map and the
    /// balanced map the solver builds — to the sequential factor's bits.
    fn check_against_sequential(p: usize, seed: u64) {
        let (a, bm0, tg) = build(60, 8, seed);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());

        let mut seq_bm = bm0.clone();
        factor_sequential(&mut seq_bm, &tg, &sel, 0.0);
        let want = seq_bm.to_csc();

        let grid = ProcessGrid::new(p);
        for (map, owners) in [
            ("block-cyclic", OwnerMap::block_cyclic(&bm0, grid)),
            ("balanced", OwnerMap::balanced(&bm0, grid, &tg)),
        ] {
            let mut dist_bm = bm0.clone();
            let cfg = FactorConfig::default();
            let run =
                factor_distributed_checked(&mut dist_bm, &tg, &owners, &sel, 0.0, &cfg).unwrap();
            assert_eq!(run.stats.busy.len(), p);
            assert_eq!(
                dist_bm.to_csc().values(),
                want.values(),
                "p={p} map={map} seed={seed}: factor diverged from the sequential bits"
            );
        }
    }

    #[test]
    fn single_rank_sync_free_matches_sequential() {
        check_against_sequential(1, 1);
    }

    #[test]
    fn four_ranks_sync_free_matches_sequential() {
        for seed in [2, 3] {
            check_against_sequential(4, seed);
        }
    }

    #[test]
    fn six_ranks_sync_free_matches_sequential() {
        check_against_sequential(6, 4);
    }

    #[test]
    fn message_counts_are_nonzero_with_multiple_ranks() {
        let (a, mut bm, tg) = build(80, 8, 9);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
        let cfg = FactorConfig::default();
        let run = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 0.0, &cfg).unwrap();
        assert!(run.stats.messages > 0, "4-rank run must communicate");
        assert!(run.stats.bytes > 0);
    }

    #[test]
    fn oversubscribed_ranks_still_correct() {
        // More ranks than block rows: some ranks own nothing.
        check_against_sequential(8, 7);
    }

    #[test]
    fn checked_run_returns_message_logs() {
        let (a, mut bm, tg) = build(60, 8, 11);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
        let run =
            factor_distributed_checked(&mut bm, &tg, &owners, &sel, 0.0, &FactorConfig::default())
                .unwrap();
        assert_eq!(run.sent.len(), run.received.len(), "all sends delivered");
        assert_eq!(run.sent.len() as u64, run.stats.messages, "every send is logged");
    }

    /// Factors a copy of `bm0` twice on one workspace, so the second run
    /// builds and replays what `sel`'s gates admit, and returns that run.
    fn second_run(
        bm0: &BlockMatrix,
        tg: &TaskGraph,
        owners: &OwnerMap,
        sel: &KernelSelector,
    ) -> (BlockMatrix, FactorRun) {
        let mut ws = NumericWorkspace::new(bm0, tg, owners);
        let cfg = FactorConfig::default();
        factor_distributed_cached(&mut bm0.clone(), tg, owners, sel, 0.0, &cfg, &mut ws).unwrap();
        let mut bm = bm0.clone();
        let run = factor_distributed_cached(&mut bm, tg, owners, sel, 0.0, &cfg, &mut ws).unwrap();
        (bm, run)
    }

    #[test]
    fn planned_run_is_bitwise_identical_to_unplanned() {
        // "Unplanned" is a selector whose planned gates are closed: no
        // plan is built or replayed, and the factor keeps its bits.
        for p in [1usize, 4] {
            let (a, bm0, tg) = build(60, 8, 15);
            let owners = OwnerMap::block_cyclic(&bm0, ProcessGrid::new(p));

            let sel = KernelSelector::new(a.nnz(), Thresholds::default());
            let (planned_bm, run) = second_run(&bm0, &tg, &owners, &sel);
            let closed = KernelSelector::new(a.nnz(), Thresholds::unplanned());
            let (plain_bm, plain) = second_run(&bm0, &tg, &owners, &closed);
            assert_eq!(
                planned_bm.to_csc().values(),
                plain_bm.to_csc().values(),
                "p={p}: planned factor diverged"
            );

            let mem = run.report.total_mem();
            assert!(mem.planned_calls > 0, "p={p}: no planned calls");
            assert!(mem.index_searches_avoided > 0);
            assert!(mem.plan_bytes > 0);

            let mem = plain.report.total_mem();
            assert_eq!(mem.planned_calls, 0, "p={p}");
            assert_eq!(mem.index_searches_avoided, 0);
            assert_eq!(mem.plan_bytes, 0);
            assert_eq!(mem.plan_build_ns, 0);
        }
    }

    #[test]
    fn planned_calls_cover_every_task_when_gates_are_open() {
        // With every planned gate pinned open, every kernel call on
        // every rank goes through a plan — except a GETRF of a full
        // diagonal block and an SSSSM onto a full target, which never
        // have one (a plan resolves nothing where row `r` sits at
        // `j·m + r`). (The calibrated defaults
        // close the panel/SSSSM gates above their crossovers, so open
        // them explicitly — coverage here guards the executor wiring,
        // not the selector policy.)
        let (a, bm, tg) = build(60, 8, 17);
        let open = Thresholds {
            getrf_planned: f64::INFINITY,
            gessm_planned: f64::INFINITY,
            tstrf_planned: f64::INFINITY,
            ssssm_planned: f64::INFINITY,
        };
        let sel = KernelSelector::new(a.nnz(), open);
        let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
        let (_, run) = second_run(&bm, &tg, &owners, &sel);
        let full_targets = tg
            .ssssm
            .iter()
            .filter(|&&(i, j, _)| is_full(bm.block(bm.block_id(i, j).expect("target exists"))))
            .count();
        assert!(full_targets > 0 && full_targets < tg.ssssm.len(), "fixture covers both sides");
        let full_diagonals =
            (0..bm.nblk()).filter(|&k| is_full(bm.block(bm.block_id(k, k).unwrap()))).count();
        assert!(full_diagonals > 0 && full_diagonals < bm.nblk(), "fixture covers both sides");
        let total_tasks = bm.nblk()
            + tg.u_panels.iter().map(|v| v.len()).sum::<usize>()
            + tg.l_panels.iter().map(|v| v.len()).sum::<usize>()
            + tg.ssssm.len();
        let unplanned = full_targets + full_diagonals;
        assert_eq!(run.report.total_mem().planned_calls, (total_tasks - unplanned) as u64);
    }

    #[test]
    fn rank_tables_hold_only_received_copies() {
        // A rank factors its own blocks in `bm`: after a 2 × 2 run its
        // table's owned slots are still placeholders, and every slot that
        // is not is a block shipped to it.
        let (a, mut bm, tg) = build(80, 8, 5);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(2, 2), &tg);
        let mut ws = NumericWorkspace::new(&bm, &tg, &owners);
        factor_distributed_cached(
            &mut bm,
            &tg,
            &owners,
            &sel,
            0.0,
            &FactorConfig::default(),
            &mut ws,
        )
        .unwrap();
        let mut received = 0;
        for st in &ws.ranks {
            for (id, slot) in st.table.iter().enumerate() {
                if owners.owner_of(id) == st.rank {
                    assert_eq!(
                        (slot.nrows(), slot.ncols()),
                        (0, 0),
                        "rank {}: owned {id}",
                        st.rank
                    );
                } else if slot.ncols() > 0 {
                    assert!(
                        tg.destinations(&owners, id).contains(&st.rank),
                        "rank {}: {id}",
                        st.rank
                    );
                    received += 1;
                }
            }
        }
        assert!(received > 0, "a 2 × 2 run ships blocks");
    }

    #[test]
    fn lost_message_surfaces_as_dist_error_not_hang() {
        let (a, mut bm, tg) = build(60, 8, 2);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
        // Lose the first message on an edge a fault-free run uses.
        let clean = factor_distributed_checked(
            &mut bm.clone(),
            &tg,
            &owners,
            &sel,
            0.0,
            &FactorConfig::default(),
        )
        .unwrap();
        let edge = clean.sent.iter().find(|r| r.from != r.to).expect("a 4-rank run communicates");
        let cfg = FactorConfig::default()
            .with_fault(FaultPlan::reliable(1).with_loss(edge.from, edge.to, 0))
            .with_stall_timeout(Duration::from_millis(400));
        let t0 = Instant::now();
        let err = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 0.0, &cfg)
            .expect_err("run must fail when a message is lost");
        assert!(t0.elapsed() < Duration::from_secs(30), "error must beat the old 60s hang");
        assert!(!err.missing.is_empty(), "error must name missing blocks: {err}");
        let text = err.to_string();
        assert!(text.contains("rank"), "error names the blocked rank: {text}");
        assert!(text.contains("missing"), "error names missing operands: {text}");
    }
}

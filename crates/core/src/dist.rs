//! The multi-rank numeric factorisation: threads as MPI ranks, block
//! messages over mailboxes, and two scheduling policies:
//!
//! * [`ScheduleMode::SyncFree`] — the paper's synchronisation-free
//!   strategy (§4.4): each rank keeps the synchronisation-free counter
//!   array for its blocks, drains its mailbox without blocking while any
//!   kernel is runnable, executes the highest-priority runnable kernel
//!   (lowest elimination step first, GETRF before panel solves before
//!   SSSSM), ships finished blocks to exactly the ranks whose pending
//!   kernels consume them, and blocks on the mailbox only when nothing is
//!   runnable — that blocked time is the measured synchronisation cost.
//! * [`ScheduleMode::LevelSet`] — the SuperLU_DIST-style baseline: the
//!   same data movement, but tasks of elimination step `k+1` may not
//!   start until a barrier confirms every rank finished step `k`
//!   (§3.3). The ablation of Fig. 14 toggles this.
//!
//! Ranks share **no** mutable state: each worker clones its owned blocks
//! out of the input structure, and remote operands exist only as received
//! copies — the same discipline an MPI implementation is forced into.
//!
//! Two properties make the executor testable under adversarial message
//! timing (see `pangulu_comm::fault` and `crate::trace_check`):
//!
//! * **Deterministic update order** — the SSSSM updates targeting one
//!   block are applied in ascending elimination-step order, regardless of
//!   the order their operands arrive. Floating-point addition is not
//!   associative, so this is what makes the computed factors *bitwise*
//!   identical across runs, grids, and fault schedules.
//! * **Bounded stalls** — a rank that makes no progress for
//!   [`FactorConfig::stall_timeout`] aborts the whole run with a
//!   structured [`DistError`] naming the blocked rank and the exact
//!   missing operand blocks, instead of hanging. A permanently dropped
//!   message therefore surfaces as a diagnosable error.

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pangulu_comm::{
    BlockMsg, BlockRole, DeliveryRecord, FaultPlan, Mailbox, MailboxSet, TransportKind,
};
use pangulu_kernels::select::KernelSelector;
use pangulu_kernels::{
    flops, KernelPlans, KernelScratch, PlanStats, Route, SsssmUpdate, TimedKernels,
};
use pangulu_metrics::{MemStats, RankMetrics, RunReport, SchedStats, TaskCounts};
use pangulu_sparse::{CscMatrix, Scalar};

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;
use crate::task::{PrioritisedTask, Task, TaskGraph, TaskPriorities};

/// Scheduling policy of the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Synchronisation-free counter-array scheduling (paper §4.4).
    SyncFree,
    /// Per-elimination-step barriers (level-set baseline, §3.3).
    LevelSet,
}

/// How a rank orders (and shares) its ready work within a
/// [`ScheduleMode`]. Every policy preserves the per-target ascending-k
/// SSSSM discipline, so the computed factors are bitwise identical
/// across all three (see `docs/SCHEDULING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// The legacy ready-queue order: elimination step, then kernel
    /// class, then target coordinates. No lookahead window, no stealing.
    Fifo,
    /// Order the ready queue by the analysis-time critical-path
    /// priorities cached in the [`NumericWorkspace`], with the Fifo
    /// order as deterministic tie-break; out-of-order work is bounded
    /// by [`FactorConfig::lookahead`].
    Priority,
    /// [`SchedulePolicy::Priority`] plus cross-rank SSSSM work stealing:
    /// an idle rank advertises itself on the steal board and owners hand
    /// it ready ascending-k update runs whose operands it already holds.
    PriorityStealing,
}

impl Default for SchedulePolicy {
    /// [`SchedulePolicy::Priority`]: bitwise identical to Fifo, faster
    /// on wide DAGs, no steal traffic.
    fn default() -> Self {
        SchedulePolicy::Priority
    }
}

/// Full configuration of one distributed factorisation run.
#[derive(Debug, Clone)]
pub struct FactorConfig {
    /// Scheduling policy.
    pub mode: ScheduleMode,
    /// Ready-queue ordering / work-sharing policy. [`ScheduleMode::LevelSet`]
    /// always runs the queue in Fifo order (the barrier defines the
    /// schedule), so the policy only takes effect under
    /// [`ScheduleMode::SyncFree`].
    pub policy: SchedulePolicy,
    /// Out-of-order lookahead window of the priority policies: a rank may
    /// execute ready work up to this many elimination steps past its
    /// lowest locally-unfinished step; work further ahead is parked until
    /// the front advances. Ignored under [`SchedulePolicy::Fifo`], which
    /// keeps the historical unbounded out-of-order drain.
    pub lookahead: usize,
    /// Optional seeded fault plan applied to every message.
    pub fault: Option<FaultPlan>,
    /// How long a rank may sit with nothing runnable and no incoming
    /// messages before the run aborts with a [`DistError`].
    pub stall_timeout: Duration,
    /// Record per-kernel [`TraceEvent`]s. A traced run applies ready
    /// SSSSM updates one at a time (trace events are defined on single
    /// updates); an untraced [`ScheduleMode::SyncFree`] run fuses
    /// consecutive ready updates the selector leaves unplanned into one
    /// scatter → multi-axpy → gather pass. Both apply the updates in the
    /// same ascending-step order, so the factors are bitwise identical.
    pub traced: bool,
    /// Record per-variant kernel tallies and model FLOPs into the
    /// [`RunReport`]. Off, every kernel call delegates straight to the
    /// implementation — no clock reads, no FLOP walks (the
    /// zero-cost-when-disabled contract); the always-on busy/sync
    /// accounting and communication counters are kept either way.
    pub metrics: bool,
    /// Transport backend the rank mailboxes run on (in-process channels
    /// by default). The factors and every deterministic counter are
    /// backend-invariant — the cross-backend conformance suite asserts
    /// bitwise-identical results over channels, shared-memory rings and
    /// sockets.
    pub transport: TransportKind,
}

impl Default for FactorConfig {
    fn default() -> Self {
        FactorConfig {
            mode: ScheduleMode::SyncFree,
            policy: SchedulePolicy::Priority,
            lookahead: 8,
            fault: None,
            stall_timeout: Duration::from_secs(60),
            traced: false,
            metrics: true,
            transport: TransportKind::Channel,
        }
    }
}

impl FactorConfig {
    /// Config for a plain run under the given mode.
    pub fn with_mode(mode: ScheduleMode) -> Self {
        FactorConfig { mode, ..Default::default() }
    }

    /// Sets the ready-queue policy (Priority by default).
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the out-of-order lookahead window of the priority policies.
    pub fn with_lookahead(mut self, window: usize) -> Self {
        self.lookahead = window;
        self
    }

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

    /// Selects the transport backend (in-process channels by default;
    /// bitwise-neutral by the conformance contract).
    pub fn with_transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
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
    /// Its current elimination step (level-set mode) or the lowest step
    /// with unfinished work.
    pub step: usize,
    /// Tasks the rank still owed when it gave up.
    pub remaining: usize,
    /// How long the rank waited without progress.
    pub waited: Duration,
    /// The operand blocks it was waiting for (capped).
    pub missing: Vec<MissingDep>,
    /// Messages the fault layer permanently dropped on this rank's sends
    /// (sender-side view, available when the stalled rank also sent).
    pub lost_sends: usize,
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
        if self.lost_sends > 0 {
            write!(f, " ({} messages permanently dropped by the fault plan)", self.lost_sends)?;
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
    /// Per-rank time spent blocked waiting for messages or barriers.
    pub sync_wait: Vec<Duration>,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Statically perturbed pivots across ranks.
    pub perturbed_pivots: usize,
    /// Transmission retries consumed by the fault layer.
    pub retried_sends: u64,
    /// Messages permanently dropped by the fault layer.
    pub dropped_msgs: u64,
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

/// One cross-rank work-stealing handoff: the owner (`victim`) of target
/// block `(bi, bj)` granted `thief` the `width` consecutive ready SSSSM
/// updates starting at cursor position `pos` of the target's ascending-k
/// reduction chain. The trace validator uses these records to check
/// stealing legality (see `crate::trace_check`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealRecord {
    /// The rank that owned the target and granted the run.
    pub victim: usize,
    /// The rank that executed the granted updates.
    pub thief: usize,
    /// Target block row.
    pub bi: usize,
    /// Target block column.
    pub bj: usize,
    /// Cursor position of the first granted update in the target's
    /// ascending-k chain.
    pub pos: usize,
    /// Number of consecutive updates granted.
    pub width: usize,
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
    /// Messages permanently dropped by the fault layer.
    pub lost: Vec<DeliveryRecord>,
    /// Every work-stealing handoff, victim-side view (empty unless
    /// [`SchedulePolicy::PriorityStealing`] was active and a steal
    /// actually happened).
    pub steals: Vec<StealRecord>,
}

/// Factorises `bm` in place across `owners.num_ranks()` rank threads
/// under `cfg` (scheduling mode, fault plan, stall timeout, tracing) and
/// returns the stats, kernel timeline, and message logs. On a stall —
/// e.g. a message permanently lost by the fault plan — every rank shuts
/// down cooperatively and the first structured [`DistError`] is
/// returned; `bm` is left untouched in that case.
///
/// Builds a transient [`NumericWorkspace`] for the run; callers that
/// factor the same pattern repeatedly should build the workspace once
/// and call [`factor_distributed_cached`] instead.
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
/// * each rank's owned-block value storage (reset in place from `bm`
///   at the start of every run — no per-run clone of the block tables);
/// * the synchronisation-free dependency counters, per-target SSSSM
///   update orders, and per-step task totals (copied from immutable
///   analysis arrays instead of being rebuilt from the task graph);
/// * the receive-side pattern shells: remote blocks delivered in an
///   earlier run keep their CSC structure, so every steady-state receive
///   is a values-only memcpy ([`MemStats::pattern_cache_hits`]);
/// * each rank's pooled kernel scratch arena.
///
/// The run is bitwise identical to a fresh [`factor_distributed_checked`]
/// on the same `bm` values — reuse only skips pattern-dependent setup,
/// never changes the deterministic ascending-step application order.
/// On [`DistError`] the workspace is left dirty but safe: the next run's
/// reset restores every flag and value from `bm`.
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
    for st in &mut ws.ranks {
        st.reset(bm);
    }
    // A backend that cannot come up (e.g. sockets in a sandbox) is a
    // loud environment error, never a silent fallback to another one.
    let mailboxes = MailboxSet::<S>::with_transport(p, cfg.transport, cfg.fault.clone())
        .unwrap_or_else(|e| panic!("failed to build {} transport mesh: {e}", cfg.transport))
        .into_mailboxes();
    let barrier = StepBarrier::new(p);
    let board = StealBoard::new(p);
    let prios = ws.priorities.clone();
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<DistError>> = Mutex::new(None);

    let mut worker_outputs: Vec<WorkerOutput> = Vec::with_capacity(p);
    {
        let bm_ref: &BlockMatrix<S> = bm;
        std::thread::scope(|s| {
            let handles: Vec<_> = mailboxes
                .into_iter()
                .zip(ws.ranks.iter_mut())
                .map(|(mb, st)| {
                    let barrier = &barrier;
                    let board = &board;
                    let prios = &prios;
                    let abort = &abort;
                    let first_err = &first_err;
                    s.spawn(move || {
                        let mut w = Worker::new(
                            bm_ref,
                            tg,
                            owners,
                            selector,
                            pivot_floor,
                            cfg,
                            mb,
                            st,
                            prios,
                            barrier,
                            board,
                            abort,
                            first_err,
                        );
                        w.trace_origin = Some(start).filter(|_| cfg.traced);
                        w.run()
                    })
                })
                .collect();
            for h in handles {
                worker_outputs.push(h.join().expect("rank thread panicked"));
            }
        });
    }

    if let Some(err) = first_err.into_inner().expect("error slot poisoned") {
        return Err(err);
    }

    // Copy the factored values back into the shared structure; the
    // workspace keeps its block tables (and the remote pattern shells)
    // for the next same-pattern run.
    for st in &ws.ranks {
        for (id, blk) in st.my_blocks.iter().enumerate() {
            if let Some(b) = blk {
                bm.block_mut(id).values_mut().copy_from_slice(b.values());
            }
        }
    }

    let mut run = FactorRun {
        report: RunReport {
            ranks: p,
            wall_nanos: duration_nanos(start.elapsed()),
            predicted_flops: if cfg.metrics { predicted_total_flops(bm, tg) } else { 0.0 },
            scalar_width: S::WIDTH as u64,
            precision_fallbacks: 0,
            probe_skips: 0,
            per_rank: Vec::with_capacity(p),
        },
        ..Default::default()
    };
    let mut trace = Vec::new();
    for out in worker_outputs {
        run.report.per_rank.push(out.metrics);
        trace.extend(out.trace);
        run.sent.extend(out.sent);
        run.received.extend(out.received);
        run.lost.extend(out.lost);
        run.steals.extend(out.steals);
    }
    run.report.per_rank.sort_by_key(|r| r.rank);
    trace.sort_by_key(|e| e.start);
    run.trace = trace;
    run.stats = stats_from_report(&run.report);
    Ok(run)
}

/// The symbolic-phase FLOP prediction: every task's model FLOP count
/// evaluated on the (static) block patterns before any value changes.
/// Kernels only ever write inside the stored pattern, so the metered
/// "observed" FLOPs of a complete run must sum to exactly this — a
/// consistency check the metrics tests lean on.
pub fn predicted_total_flops<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> f64 {
    let mut total = 0.0f64;
    for id in 0..bm.num_blocks() {
        let (bi, bj) = bm.block_coords(id);
        let blk = bm.block(id);
        match bi.cmp(&bj) {
            std::cmp::Ordering::Equal => total += flops::getrf_flops(blk),
            std::cmp::Ordering::Less => {
                let diag = bm.block(bm.block_id(bi, bi).expect("diag block exists"));
                total += flops::gessm_flops(diag, blk);
            }
            std::cmp::Ordering::Greater => {
                let diag = bm.block(bm.block_id(bj, bj).expect("diag block exists"));
                total += flops::tstrf_flops(diag, blk);
            }
        }
    }
    for &(i, j, k) in &tg.ssssm {
        let a = bm.block(bm.block_id(i, k).expect("L operand exists"));
        let b = bm.block(bm.block_id(k, j).expect("U operand exists"));
        total += flops::ssssm_flops(a, b);
    }
    total
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
        stats.retried_sends += r.comm.retried_sends;
        stats.dropped_msgs += r.comm.dropped_msgs;
        stats.recv_timeouts += r.comm.recv_timeouts;
    }
    stats
}

/// A reusable, abort-aware step barrier: like [`std::sync::Barrier`] but
/// a waiter returns `false` (instead of blocking forever) once the abort
/// flag is raised — which is what keeps a [`DistError`] on one rank from
/// deadlocking the level-set mode's lockstep ranks.
struct StepBarrier {
    parties: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl StepBarrier {
    fn new(parties: usize) -> Self {
        StepBarrier { parties, state: Mutex::new((0, 0)), cv: Condvar::new() }
    }

    /// Waits for all parties; returns `false` if the run aborted.
    fn wait(&self, abort: &AtomicBool) -> bool {
        let mut st = self.state.lock().expect("barrier poisoned");
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.parties {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return true;
        }
        loop {
            if abort.load(AtomicOrdering::Relaxed) {
                return false;
            }
            let (guard, _) =
                self.cv.wait_timeout(st, Duration::from_millis(10)).expect("barrier poisoned");
            st = guard;
            if st.1 != gen {
                return true;
            }
        }
    }
}

/// The cross-rank work-stealing coordination board: one atomic slot per
/// rank, written with compare-and-swap so every transition is owned by
/// exactly one side. States:
///
/// * `0` — idle: the rank is busy (or simply not asking for work);
/// * `1` — hungry: the rank has nothing runnable and volunteers to
///   execute a stolen update run (set by the thief, `0 → 1`);
/// * `2` — granted: a victim claimed the hungry rank and a
///   [`BlockRole::StealGrant`] is in flight (victim CAS `1 → 2`; the
///   thief moves `2 → 0` after shipping its [`BlockRole::StealResult`]);
/// * `3` — retired: the rank finished all its work and will not service
///   grants any more (thief CAS `0|1 → 3`; a slot seen at `2` forces the
///   thief to keep receiving until the in-flight grant is settled).
///
/// The CAS handshake makes the handoff exactly-once: a victim that loses
/// the `1 → 2` race sends nothing, and a thief can only retire from a
/// state in which no grant can still be in flight.
struct StealBoard {
    slots: Vec<AtomicUsize>,
}

impl StealBoard {
    fn new(p: usize) -> Self {
        StealBoard { slots: (0..p).map(|_| AtomicUsize::new(0)).collect() }
    }
}

/// What one rank hands back. The factored block values stay in the
/// rank's [`RankState`] (written back by the caller on success).
struct WorkerOutput {
    metrics: RankMetrics,
    trace: Vec<TraceEvent>,
    sent: Vec<DeliveryRecord>,
    received: Vec<DeliveryRecord>,
    lost: Vec<DeliveryRecord>,
    steals: Vec<StealRecord>,
}

/// One rank's pattern-dependent executor state, built once per
/// (pattern, grid, owner map) and reusable across numeric-only
/// refactorisations. See [`NumericWorkspace`].
struct RankState<S: Scalar> {
    rank: usize,
    /// This rank's working copies of its owned blocks, indexed by block
    /// id. A slot is `None` only for unowned blocks (and transiently for
    /// the kernel target while a panel/SSSSM task runs on it, which is
    /// what lets operands be borrowed from the table without cloning).
    my_blocks: Vec<Option<CscMatrix<S>>>,
    /// The receive-side pattern cache: remote blocks, indexed by block
    /// id. The first receive for a block builds its CSC structure from
    /// the replicated pattern; every later receive — in the same run or
    /// any subsequent refactorisation — memcpys values into the cached
    /// shell (counted as [`MemStats::pattern_cache_hits`]).
    remote: Vec<Option<CscMatrix<S>>>,
    /// Finished owned blocks (panel op done), by block id.
    finished: Vec<bool>,
    /// Synchronisation-free counters for owned blocks, by block id.
    counter: Vec<usize>,
    /// Owned blocks already queued for their panel op, by block id.
    queued: Vec<bool>,
    /// Operand availability (owned-finished or received), by block id —
    /// a block's role (diagonal factor, L-panel, U-panel) is determined
    /// by its coordinates, so one flag per block covers all three of the
    /// paper's dependency kinds.
    avail: Vec<bool>,
    /// Deterministic update order: per target block id, the ascending
    /// elimination steps of its SSSSM updates (empty when the block is
    /// not an owned SSSSM target)...
    upd_order: Vec<Vec<usize>>,
    /// ...the index of the next update to apply...
    upd_pos: Vec<usize>,
    /// ...and, aligned with `upd_order[cid]`, whether each update's
    /// operands have both arrived.
    upd_ready: Vec<Vec<bool>>,
    /// Aligned with `upd_order[cid]`: each update's global index into
    /// [`TaskGraph::ssssm`] — the slot key of its kernel plan.
    upd_gid: Vec<Vec<u32>>,
    /// Precomputed kernel index plans, built lazily per task on this
    /// rank's first touch and — like the rest of this state — reused
    /// verbatim across numeric-only refactorisations.
    plans: KernelPlans<S>,
    /// The immutable analysis copy of the dependency counters, used by
    /// [`RankState::reset`] instead of re-walking the task graph.
    counter_init: Vec<usize>,
    /// Tasks this rank owes per run (panel ops + SSSSM updates).
    remaining_init: usize,
    /// Level-set mode: tasks owed per elimination step.
    step_total: Vec<usize>,
    /// Pooled dense kernel scratch, persistent across runs.
    scratch: KernelScratch<S>,
}

impl<S: Scalar> RankState<S> {
    fn new(bm: &BlockMatrix<S>, tg: &TaskGraph, owners: &OwnerMap, rank: usize) -> Self {
        let nblocks = bm.num_blocks();
        // Clone owned blocks (the "distribute the matrix" preprocessing
        // step — each rank stores only what it computes on, §4.2).
        let mut my_blocks: Vec<Option<CscMatrix<S>>> = vec![None; nblocks];
        let mut counter_init = vec![0usize; nblocks];
        let mut remaining = 0usize;
        let mut step_total = vec![0usize; bm.nblk() + 1];
        for id in 0..nblocks {
            if owners.owner_of(id) == rank {
                my_blocks[id] = Some(bm.block(id).clone());
                counter_init[id] = tg.indegree[id];
                remaining += 1; // the block's panel op
                step_total[bm.step_of(id)] += 1;
            }
        }
        let mut upd_pairs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nblocks];
        for (gid, &(i, j, k)) in tg.ssssm.iter().enumerate() {
            let cid = bm.block_id(i, j).expect("ssssm target exists");
            if owners.owner_of(cid) == rank {
                remaining += 1;
                step_total[k] += 1;
                upd_pairs[cid].push((k, gid as u32));
            }
        }
        for pairs in &mut upd_pairs {
            // Each step appears at most once per target, so sorting the
            // pairs orders by step exactly as before.
            pairs.sort_unstable();
        }
        let upd_order: Vec<Vec<usize>> =
            upd_pairs.iter().map(|p| p.iter().map(|&(k, _)| k).collect()).collect();
        let upd_gid: Vec<Vec<u32>> =
            upd_pairs.iter().map(|p| p.iter().map(|&(_, g)| g).collect()).collect();
        let upd_ready: Vec<Vec<bool>> = upd_order.iter().map(|o| vec![false; o.len()]).collect();
        RankState {
            rank,
            my_blocks,
            remote: vec![None; nblocks],
            finished: vec![false; nblocks],
            counter: counter_init.clone(),
            queued: vec![false; nblocks],
            avail: vec![false; nblocks],
            upd_order,
            upd_pos: vec![0usize; nblocks],
            upd_ready,
            upd_gid,
            plans: KernelPlans::with_slots(bm.nblk(), nblocks, nblocks, tg.ssssm.len()),
            counter_init,
            remaining_init: remaining,
            step_total,
            scratch: KernelScratch::with_capacity(bm.nb()),
        }
    }

    /// Re-arms the state for another run on the same pattern: owned block
    /// values are copied from `bm` in place, the dependency counters are
    /// restored from the immutable analysis copy, and every progress flag
    /// is cleared. The remote pattern shells keep their structure (their
    /// stale values are only ever read after a fresh receive overwrites
    /// them — `avail` gates every operand lookup).
    fn reset(&mut self, bm: &BlockMatrix<S>) {
        for (id, slot) in self.my_blocks.iter_mut().enumerate() {
            if let Some(b) = slot {
                b.values_mut().copy_from_slice(bm.block(id).values());
            }
        }
        self.finished.fill(false);
        self.counter.copy_from_slice(&self.counter_init);
        self.queued.fill(false);
        self.avail.fill(false);
        self.upd_pos.fill(0);
        for ready in &mut self.upd_ready {
            ready.fill(false);
        }
    }
}

/// The cached per-rank executor state of a distributed factorisation:
/// one `RankState` per rank (owned-block tables, dependency counters,
/// deterministic SSSSM orders, receive-side pattern shells, kernel
/// scratch). Build it once per (pattern, grid, owner map) and pass it to
/// [`factor_distributed_cached`] for every same-pattern factorisation;
/// steady-state runs then do no pattern-dependent setup at all.
pub struct NumericWorkspace<S: Scalar = f64> {
    ranks: Vec<RankState<S>>,
    num_blocks: usize,
    /// The analysis-time critical-path priority vector (see
    /// [`TaskPriorities`]): computed once per pattern alongside the rest
    /// of the workspace and shared by reference with every run, so a
    /// numeric-only refactorisation never recomputes it.
    priorities: Arc<TaskPriorities>,
}

impl<S: Scalar> NumericWorkspace<S> {
    /// Builds the per-rank state for `owners.num_ranks()` ranks over the
    /// pattern of `bm` (values are re-read from `bm` at every run).
    pub fn new(bm: &BlockMatrix<S>, tg: &TaskGraph, owners: &OwnerMap) -> Self {
        let ranks = (0..owners.num_ranks()).map(|r| RankState::new(bm, tg, owners, r)).collect();
        NumericWorkspace {
            ranks,
            num_blocks: bm.num_blocks(),
            priorities: Arc::new(TaskPriorities::compute(bm, tg)),
        }
    }

    /// Number of ranks the workspace was built for.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Memory and build accounting of the kernel plans, summed over the
    /// ranks' pools.
    pub fn plan_stats(&self) -> PlanStats {
        self.ranks.iter().map(|st| st.plans.stats()).fold(PlanStats::default(), |acc, ps| {
            PlanStats {
                bytes: acc.bytes + ps.bytes,
                build_ns: acc.build_ns.saturating_add(ps.build_ns),
                builds: acc.builds + ps.builds,
            }
        })
    }

    /// The cached critical-path priority vector, shared (not cloned) with
    /// every run on this workspace.
    pub fn priorities(&self) -> Arc<TaskPriorities> {
        self.priorities.clone()
    }
}

/// Bookkeeping emitted by the kernel part of [`Worker::execute`]; the
/// trace event is recorded between the kernel and this follow-up so the
/// producer's `end` timestamp is on the clock before any consumer can
/// observe the result.
enum Post {
    Panel {
        id: usize,
        step: usize,
        role: BlockRole,
    },
    /// `applied` consecutive updates (from the target's cursor) done.
    Update {
        cid: usize,
        applied: usize,
    },
}

/// A ready-queue entry: the task plus its cached critical-path priority.
/// The heap is a max-heap over `(prio, legacy order)`, so higher
/// priorities pop first and ties fall back to the historical
/// step/class/target order — under [`SchedulePolicy::Fifo`] every entry
/// carries `prio == 0.0` and the pop order is byte-for-byte the legacy
/// one.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    prio: f64,
    task: Task,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio
            .total_cmp(&other.prio)
            .then_with(|| PrioritisedTask(self.task).cmp(&PrioritisedTask(other.task)))
    }
}

/// A granted update run parked (or about to run) on the thief: the
/// target's values arrived with the grant, the panel operands either are
/// already here or are still in flight from their producers (the victim
/// only grants runs whose operands were shipped to this rank).
struct StolenJob<S: Scalar> {
    victim: usize,
    bi: usize,
    bj: usize,
    /// The granted `(k, gid)` slice of the target's ascending-k chain.
    span: Vec<(usize, usize)>,
    /// The thief's private working copy of the target block.
    target: CscMatrix<S>,
}

/// Per-rank executor: the run-scoped view over a rank's cached
/// [`RankState`] (block tables, counters, schedules) plus everything that
/// is fresh per run (mailbox, task queue, metrics, trace).
struct Worker<'a, S: Scalar> {
    rank: usize,
    bm: &'a BlockMatrix<S>,
    tg: &'a TaskGraph,
    owners: &'a OwnerMap,
    selector: &'a KernelSelector,
    pivot_floor: f64,
    mode: ScheduleMode,
    stall_timeout: Duration,
    mailbox: Mailbox<S>,
    barrier: &'a StepBarrier,
    abort: &'a AtomicBool,
    first_err: &'a Mutex<Option<DistError>>,

    /// The rank's cached executor state (already reset for this run).
    st: &'a mut RankState<S>,
    /// Widest SSSSM fusion allowed (1 = one-at-a-time; see
    /// [`FactorConfig::traced`]).
    max_batch: usize,

    /// Effective queue policy: the configured [`FactorConfig::policy`],
    /// forced to Fifo under [`ScheduleMode::LevelSet`] (the barrier
    /// defines the schedule there).
    policy: SchedulePolicy,
    /// Whether cross-rank stealing is active (`PriorityStealing` under
    /// `SyncFree`).
    stealing: bool,
    /// Out-of-order lookahead window (priority policies only).
    lookahead: usize,
    /// The cached analysis-time critical-path priorities.
    prio: &'a TaskPriorities,
    board: &'a StealBoard,

    queue: BinaryHeap<QueueEntry>,
    /// Entries popped past the lookahead horizon, parked until the local
    /// step front advances.
    deferred: Vec<QueueEntry>,
    /// Lowest elimination step with unfinished owned work — the local
    /// front the lookahead window is measured from.
    front: usize,
    /// Level-set short-circuit: set when the heap top is known to belong
    /// to a later step, cleared on any push or step advance, so a blocked
    /// rank stops re-peeking the heap every scheduler iteration.
    levelset_blocked: bool,
    /// Ready-queue census per elimination step (deferred entries
    /// included) — the bookkeeping behind
    /// [`SchedStats::priority_inversions`]...
    queued_by_step: Vec<u32>,
    /// ...and the lazily advanced lowest queued step.
    min_queued_step: usize,
    /// Live loans on owned targets: `cid → (pos, width, thief)`.
    loans: HashMap<usize, (usize, usize, usize)>,
    /// Granted runs this rank accepted and has not finished yet.
    stolen_jobs: Vec<StolenJob<S>>,
    /// Victim-side log of every grant this rank handed out.
    steal_records: Vec<StealRecord>,
    /// Scheduling observables (steals, steal bytes, lookahead hits,
    /// priority inversions).
    sched: SchedStats,
    remaining: usize,
    /// Level-set mode: tasks done per elimination step (owed totals live
    /// in [`RankState::step_total`]).
    step_done: Vec<usize>,
    current_step: usize,

    /// Metered kernel front door (a plain pass-through when
    /// [`FactorConfig::metrics`] is off).
    timed: TimedKernels,
    busy: Duration,
    barrier_wait: Duration,
    perturbed: usize,
    /// Tasks executed on this rank, by kernel kind.
    tasks: TaskCounts,
    /// Hot-path copy/allocation accounting.
    mem: MemStats,
    /// Times this rank entered the blocking-receive path.
    blocked_recvs: u64,
    /// Longest observed no-progress streak.
    max_idle: Duration,
    /// When set, kernels are recorded relative to this origin.
    trace_origin: Option<Instant>,
    trace: Vec<TraceEvent>,
}

impl<'a, S: Scalar> Worker<'a, S> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        bm: &'a BlockMatrix<S>,
        tg: &'a TaskGraph,
        owners: &'a OwnerMap,
        selector: &'a KernelSelector,
        pivot_floor: f64,
        cfg: &FactorConfig,
        mailbox: Mailbox<S>,
        st: &'a mut RankState<S>,
        prio: &'a TaskPriorities,
        barrier: &'a StepBarrier,
        board: &'a StealBoard,
        abort: &'a AtomicBool,
        first_err: &'a Mutex<Option<DistError>>,
    ) -> Self {
        let rank = mailbox.rank();
        debug_assert_eq!(st.rank, rank, "rank state handed to the wrong mailbox");
        // Level-set barriers and per-kernel trace events are both defined
        // on single updates.
        let max_batch =
            if cfg.mode == ScheduleMode::SyncFree && !cfg.traced { usize::MAX } else { 1 };
        let policy =
            if cfg.mode == ScheduleMode::LevelSet { SchedulePolicy::Fifo } else { cfg.policy };
        let stealing =
            policy == SchedulePolicy::PriorityStealing && cfg.mode == ScheduleMode::SyncFree;
        let remaining = st.remaining_init;
        Worker {
            rank,
            bm,
            tg,
            owners,
            selector,
            pivot_floor,
            mode: cfg.mode,
            stall_timeout: cfg.stall_timeout,
            mailbox,
            barrier,
            abort,
            first_err,
            st,
            max_batch,
            policy,
            stealing,
            lookahead: cfg.lookahead,
            prio,
            board,
            queue: BinaryHeap::new(),
            deferred: Vec::new(),
            front: 0,
            levelset_blocked: false,
            queued_by_step: vec![0u32; bm.nblk() + 1],
            min_queued_step: bm.nblk() + 1,
            loans: HashMap::new(),
            stolen_jobs: Vec::new(),
            steal_records: Vec::new(),
            sched: SchedStats::default(),
            remaining,
            step_done: vec![0usize; bm.nblk() + 1],
            current_step: 0,
            timed: TimedKernels::new(cfg.metrics),
            busy: Duration::ZERO,
            barrier_wait: Duration::ZERO,
            perturbed: 0,
            tasks: TaskCounts::default(),
            mem: MemStats::default(),
            blocked_recvs: 0,
            max_idle: Duration::ZERO,
            trace_origin: None,
            trace: Vec::new(),
        }
    }

    fn owned(&self, id: usize) -> bool {
        self.owners.owner_of(id) == self.rank
    }

    /// Whether block `(bi, bj)` is available as an operand (owned and
    /// finished, or received).
    fn avail_at(&self, bi: usize, bj: usize) -> bool {
        self.bm.block_id(bi, bj).is_some_and(|id| self.st.avail[id])
    }

    /// Fetches an operand block — an owned finished block or a received
    /// remote copy — borrowing straight from the operand tables. An
    /// associated fn (not a method) so callers holding `&mut` borrows of
    /// *other* `Worker` fields (the kernel meter, the scratch arena, a
    /// taken-out target) can still resolve operands without cloning.
    fn lookup_operand<'b>(
        bm: &BlockMatrix<S>,
        my_blocks: &'b [Option<CscMatrix<S>>],
        remote: &'b [Option<CscMatrix<S>>],
        finished: &[bool],
        bi: usize,
        bj: usize,
    ) -> &'b CscMatrix<S> {
        let id = bm.block_id(bi, bj).expect("operand block exists");
        if let Some(b) = my_blocks[id].as_ref() {
            debug_assert!(finished[id], "operand used before finished");
            b
        } else {
            remote[id].as_ref().expect("operand block neither owned nor received")
        }
    }

    fn run(mut self) -> WorkerOutput {
        self.seed_initial_tasks();
        self.advance_front();
        let slice = Duration::from_millis(50).min(self.stall_timeout);
        let mut idle = Duration::ZERO;
        loop {
            if self.abort.load(AtomicOrdering::Relaxed) {
                break;
            }
            // Drain the mailbox without blocking (Fig. 10, step 1).
            let mut got_msg = false;
            while let Some(msg) = self.mailbox.try_recv() {
                self.handle_msg(msg);
                got_msg = true;
            }
            if got_msg {
                idle = Duration::ZERO;
            }
            if self.stealing {
                if !self.stolen_jobs.is_empty() {
                    self.try_run_stolen();
                }
                self.service_steals();
            }
            if let Some(task) = self.pop_runnable() {
                idle = Duration::ZERO;
                self.execute(task);
                continue;
            }
            // When stealing, a rank may only leave once no grant can
            // still be in flight and no accepted run still waits for an
            // operand — the exactly-once handoff must not strand the
            // victim; otherwise it keeps receiving until that settles.
            if self.remaining == 0
                && self.mode == ScheduleMode::SyncFree
                && (!self.stealing || (self.stolen_jobs.is_empty() && self.try_retire()))
            {
                // Hand any still-buffered sends over before leaving.
                self.mailbox.flush_pending();
                break;
            }
            if self.mode == ScheduleMode::LevelSet {
                // Step finished locally? Barrier, then advance.
                if self.current_step <= self.bm.nblk()
                    && self.step_done[self.current_step.min(self.bm.nblk())]
                        == self.st.step_total[self.current_step.min(self.bm.nblk())]
                {
                    self.mailbox.flush_pending();
                    let t = Instant::now();
                    let ok = self.barrier.wait(self.abort);
                    self.barrier_wait += t.elapsed();
                    if !ok {
                        break;
                    }
                    idle = Duration::ZERO;
                    self.current_step += 1;
                    self.levelset_blocked = false;
                    if self.current_step >= self.bm.nblk() {
                        debug_assert_eq!(self.remaining, 0, "tasks left after final step");
                        break;
                    }
                    continue;
                }
            }
            // Nothing runnable: release buffered sends, then block on the
            // mailbox (the measured synchronisation wait, Fig. 10 step 3a).
            self.mailbox.flush_pending();
            if self.stealing && self.remaining > 0 {
                self.mark_hungry();
            }
            self.blocked_recvs += 1;
            match self.mailbox.recv(slice) {
                Some(m) => {
                    self.handle_msg(m);
                    idle = Duration::ZERO;
                }
                None => {
                    idle += slice;
                    self.max_idle = self.max_idle.max(idle);
                    if idle >= self.stall_timeout {
                        self.report_stall(idle);
                        break;
                    }
                }
            }
        }

        // End-of-run gauges: cumulative across every run that shared this
        // rank state (plans persist across refactorisations).
        self.st.plans.shrink_to_fit();
        let ps = self.st.plans.stats();
        self.mem.plan_bytes = ps.bytes;
        self.mem.plan_build_ns = ps.build_ns;
        self.timed.add_counts_to(&mut self.mem);
        let sync_wait = self.mailbox.sync_wait() + self.barrier_wait;
        let metrics = RankMetrics {
            rank: self.rank,
            busy_nanos: duration_nanos(self.busy),
            sync_wait_nanos: duration_nanos(sync_wait),
            blocked_recvs: self.blocked_recvs,
            max_idle_nanos: duration_nanos(self.max_idle),
            perturbed_pivots: self.perturbed as u64,
            tasks: self.tasks,
            mem: self.mem,
            sched: self.sched,
            comm: self.mailbox.metrics(),
            kernels: std::mem::take(&mut self.timed).into_tally(),
        };
        let (sent, received, lost) = self.mailbox.into_logs();
        WorkerOutput {
            metrics,
            trace: self.trace,
            sent,
            received,
            lost,
            steals: self.steal_records,
        }
    }

    /// Builds the stall diagnosis, publishes it (first error wins), and
    /// raises the abort flag so every rank shuts down.
    fn report_stall(&mut self, waited: Duration) {
        let missing = self.diagnose_missing(8);
        let err = DistError {
            rank: self.rank,
            step: self.lowest_unfinished_step(),
            remaining: self.remaining,
            waited,
            missing,
            lost_sends: self.mailbox.lost_log().len(),
        };
        let mut slot = self.first_err.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.abort.store(true, AtomicOrdering::Relaxed);
    }

    /// The lowest elimination step with unfinished owned work.
    fn lowest_unfinished_step(&self) -> usize {
        match self.mode {
            ScheduleMode::LevelSet => self.current_step,
            ScheduleMode::SyncFree => (0..self.step_done.len())
                .find(|&s| self.step_done[s] < self.st.step_total[s])
                .unwrap_or(self.current_step),
        }
    }

    /// Lists the operand blocks this rank is still waiting for, capped.
    fn diagnose_missing(&self, cap: usize) -> Vec<MissingDep> {
        let mut missing = Vec::new();
        for id in 0..self.bm.num_blocks() {
            if missing.len() >= cap {
                break;
            }
            if self.st.my_blocks[id].is_none() || self.st.finished[id] {
                continue;
            }
            let (bi, bj) = self.bm.block_coords(id);
            if self.st.counter[id] > 0 {
                // Outstanding SSSSM updates: report the head of the
                // deterministic order (its operands are what block us).
                let order = &self.st.upd_order[id];
                let pos = self.st.upd_pos[id];
                if pos < order.len() {
                    let k = order[pos];
                    if !self.avail_at(bi, k) {
                        missing.push(MissingDep::LOperand { i: bi, k, target: (bi, bj) });
                    }
                    if missing.len() < cap && !self.avail_at(k, bj) {
                        missing.push(MissingDep::UOperand { k, j: bj, target: (bi, bj) });
                    }
                }
            } else if !self.st.queued[id] {
                // Updates done, panel not queued: the diagonal is missing.
                let k = bi.min(bj);
                if bi != bj && !self.avail_at(k, k) {
                    missing.push(MissingDep::Diag { k, block: (bi, bj) });
                }
            }
        }
        missing
    }

    /// Tasks runnable now (level-set mode restricts to the current step;
    /// the priority policies additionally bound out-of-order work by the
    /// lookahead window).
    fn pop_runnable(&mut self) -> Option<Task> {
        match self.mode {
            ScheduleMode::SyncFree => loop {
                let e = self.queue.pop()?;
                if self.stealing {
                    if let Task::Ssssm { i, j, k } = e.task {
                        // Stale entries survive a loan: the granted run's
                        // head was queued before the grant, and the
                        // cursor jumps past the whole run when the result
                        // lands. Either way the entry no longer matches
                        // the target's cursor — drop it silently.
                        let cid = self.bm.block_id(i, j).expect("target exists");
                        if self.loans.contains_key(&cid)
                            || self.st.upd_order[cid].get(self.st.upd_pos[cid]) != Some(&k)
                        {
                            self.note_drop(e.task);
                            continue;
                        }
                    }
                }
                if self.policy != SchedulePolicy::Fifo
                    && e.task.step() > self.front.saturating_add(self.lookahead)
                {
                    self.deferred.push(e);
                    continue;
                }
                return Some(self.note_pop(e.task));
            },
            ScheduleMode::LevelSet => {
                // The step gate is hoisted into a flag: once the top is
                // known to belong to a later step, stop re-peeking (and
                // re-comparing) until a push or a step advance can change
                // the answer.
                if self.levelset_blocked {
                    return None;
                }
                match self.queue.peek() {
                    Some(top) if top.task.step() == self.current_step => {
                        let e = self.queue.pop().expect("peeked entry");
                        Some(self.note_pop(e.task))
                    }
                    Some(_) => {
                        self.levelset_blocked = true;
                        None
                    }
                    None => None,
                }
            }
        }
    }

    /// The cached critical-path priority of a task (panel priorities by
    /// block id, update priorities by global update index).
    fn task_priority(&self, task: Task) -> f64 {
        match task {
            Task::Getrf { k } => self.prio.panel[self.bm.block_id(k, k).expect("diag exists")],
            Task::Gessm { k, j } => self.prio.panel[self.bm.block_id(k, j).expect("panel exists")],
            Task::Tstrf { i, k } => self.prio.panel[self.bm.block_id(i, k).expect("panel exists")],
            Task::Ssssm { i, j, k } => {
                let cid = self.bm.block_id(i, j).expect("target exists");
                let idx =
                    self.st.upd_order[cid].binary_search(&k).expect("update in target's order");
                self.prio.ssssm[self.st.upd_gid[cid][idx] as usize]
            }
        }
    }

    /// Queues a ready task under the active policy.
    fn push_task(&mut self, task: Task) {
        let prio = if self.policy == SchedulePolicy::Fifo { 0.0 } else { self.task_priority(task) };
        let step = task.step();
        self.queued_by_step[step] += 1;
        if step < self.min_queued_step {
            self.min_queued_step = step;
        }
        self.levelset_blocked = false;
        if self.stealing {
            // Local work arrived — stop advertising as hungry (best
            // effort: a victim that already claimed the slot wins, and
            // this rank simply executes the grant alongside its work).
            let _ = self.board.slots[self.rank].compare_exchange(
                1,
                0,
                AtomicOrdering::AcqRel,
                AtomicOrdering::Acquire,
            );
        }
        self.queue.push(QueueEntry { prio, task });
    }

    /// Pop-side bookkeeping: census decrement, priority-inversion and
    /// lookahead-hit observables.
    fn note_pop(&mut self, task: Task) -> Task {
        let step = task.step();
        self.queued_by_step[step] -= 1;
        while self.min_queued_step < self.queued_by_step.len()
            && self.queued_by_step[self.min_queued_step] == 0
        {
            self.min_queued_step += 1;
        }
        if self.min_queued_step < step {
            self.sched.priority_inversions += 1;
        }
        if self.mode == ScheduleMode::SyncFree
            && self.policy != SchedulePolicy::Fifo
            && step > self.front
        {
            self.sched.lookahead_hits += 1;
        }
        task
    }

    /// Census decrement for a stale entry dropped without executing.
    fn note_drop(&mut self, task: Task) {
        self.queued_by_step[task.step()] -= 1;
    }

    /// Advances the local step front past completed steps and re-releases
    /// parked work that the wider window now admits.
    fn advance_front(&mut self) {
        let start = self.front;
        while self.front < self.st.step_total.len()
            && self.step_done[self.front] >= self.st.step_total[self.front]
        {
            self.front += 1;
        }
        if self.front != start && !self.deferred.is_empty() {
            let horizon = self.front.saturating_add(self.lookahead);
            let mut i = 0;
            while i < self.deferred.len() {
                if self.deferred[i].task.step() <= horizon {
                    let e = self.deferred.swap_remove(i);
                    self.queue.push(e);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Queues blocks with zero indegree: diagonal blocks can GETRF right
    /// away; panels additionally wait for their diagonal factor.
    fn seed_initial_tasks(&mut self) {
        for id in 0..self.bm.num_blocks() {
            if self.st.my_blocks[id].is_some() && self.st.counter[id] == 0 {
                self.maybe_queue_panel(id);
            }
        }
    }

    /// Queues the panel operation of block `id` if its updates are done
    /// and its diagonal dependency is satisfied.
    fn maybe_queue_panel(&mut self, id: usize) {
        if self.st.queued[id] || self.st.counter[id] > 0 {
            return;
        }
        let (bi, bj) = self.bm.block_coords(id);
        let task = match bi.cmp(&bj) {
            std::cmp::Ordering::Equal => Task::Getrf { k: bi },
            std::cmp::Ordering::Less => {
                if !self.avail_at(bi, bi) {
                    return; // GESSM waits for the diagonal factor of row bi
                }
                Task::Gessm { k: bi, j: bj }
            }
            std::cmp::Ordering::Greater => {
                if !self.avail_at(bj, bj) {
                    return;
                }
                Task::Tstrf { i: bi, k: bj }
            }
        };
        self.st.queued[id] = true;
        self.push_task(task);
    }

    fn execute(&mut self, task: Task) {
        let trace_start = self.trace_origin.map(|origin| origin.elapsed());
        let t0 = Instant::now();
        let post = match task {
            Task::Getrf { k } => {
                let id = self.bm.block_id(k, k).expect("diag exists");
                let st = &mut *self.st;
                let blk = st.my_blocks[id].as_mut().expect("getrf on owned block");
                let route = st.plans.route_getrf(self.selector, k, blk);
                self.perturbed += self.timed.getrf(route, blk, &mut st.scratch, self.pivot_floor);
                self.tasks.getrf += 1;
                Post::Panel { id, step: k, role: BlockRole::DiagFactor }
            }
            Task::Gessm { k, j } => {
                let id = self.bm.block_id(k, j).expect("panel exists");
                // Take the target out of its slot so the diagonal factor
                // can be borrowed from the same table — no per-task clone
                // of the diagonal CSC.
                let st = &mut *self.st;
                let mut blk = st.my_blocks[id].take().expect("gessm on owned block");
                let diag =
                    Self::lookup_operand(self.bm, &st.my_blocks, &st.remote, &st.finished, k, k);
                let route = st.plans.route_gessm(self.selector, id, diag, &blk);
                self.timed.gessm(route, diag, &mut blk, &mut st.scratch);
                st.my_blocks[id] = Some(blk);
                self.tasks.gessm += 1;
                Post::Panel { id, step: k, role: BlockRole::UPanel }
            }
            Task::Tstrf { i, k } => {
                let id = self.bm.block_id(i, k).expect("panel exists");
                let st = &mut *self.st;
                let mut blk = st.my_blocks[id].take().expect("tstrf on owned block");
                let diag =
                    Self::lookup_operand(self.bm, &st.my_blocks, &st.remote, &st.finished, k, k);
                let route = st.plans.route_tstrf(self.selector, id, diag, &blk);
                self.timed.tstrf(route, diag, &mut blk, &mut st.scratch);
                st.my_blocks[id] = Some(blk);
                self.tasks.tstrf += 1;
                Post::Panel { id, step: k, role: BlockRole::LPanel }
            }
            Task::Ssssm { i, j, k } => {
                let cid = self.bm.block_id(i, j).expect("target exists");
                let pos = self.st.upd_pos[cid];
                debug_assert_eq!(
                    self.st.upd_order[cid].get(pos),
                    Some(&k),
                    "popped SSSSM update is not at the target's cursor"
                );
                // Take the maximal run of consecutive ready updates from
                // the cursor and walk it in ascending-step order. Updates
                // routed to a plan execute one at a time through their
                // index maps; runs of variant-routed updates between them
                // fuse into `ssssm_batch` segments, scattering and
                // gathering the target column once per segment instead of
                // once per update. Either way the subtraction sequence is
                // that of one-at-a-time application, so the result is
                // bitwise identical (see the batching contract on
                // `ssssm_batch`).
                let mut width = 1usize;
                while width < self.max_batch
                    && pos + width < self.st.upd_order[cid].len()
                    && self.st.upd_ready[cid][pos + width]
                {
                    width += 1;
                }
                let bm = self.bm;
                let st = &mut *self.st;
                let mut target = st.my_blocks[cid].take().expect("ssssm on owned block");
                let mut pending: Vec<SsssmUpdate<'_, S>> = Vec::with_capacity(width);
                for n in 0..width {
                    let uk = st.upd_order[cid][pos + n];
                    let a =
                        Self::lookup_operand(bm, &st.my_blocks, &st.remote, &st.finished, i, uk);
                    let b =
                        Self::lookup_operand(bm, &st.my_blocks, &st.remote, &st.finished, uk, j);
                    let gid = st.upd_gid[cid][pos + n] as usize;
                    let fl = self.tg.ssssm_flops[gid];
                    match st.plans.route_ssssm(self.selector, gid, fl, a, b, &target) {
                        route @ Route::Plan(..) => {
                            self.timed.ssssm_batch(&pending, &mut target, &mut st.scratch);
                            pending.clear();
                            self.timed.ssssm(route, a, b, &mut target, &mut st.scratch, fl);
                        }
                        Route::Variant(variant) => {
                            pending.push(SsssmUpdate { a, b, variant, model_flops: fl })
                        }
                    }
                }
                self.timed.ssssm_batch(&pending, &mut target, &mut st.scratch);
                st.my_blocks[cid] = Some(target);
                self.tasks.ssssm += width as u64;
                Post::Update { cid, applied: width }
            }
        };
        self.busy += t0.elapsed();
        // The trace event must be on the record *before* the result is
        // shipped: otherwise a remote consumer can receive the block,
        // start, and log a start time earlier than this producer's end.
        if let (Some(origin), Some(start)) = (self.trace_origin, trace_start) {
            self.trace.push(TraceEvent { rank: self.rank, task, start, end: origin.elapsed() });
        }
        match post {
            Post::Panel { id, step, role } => self.finish_block(id, step, role),
            Post::Update { cid, applied } => {
                self.remaining -= applied;
                for n in 0..applied {
                    let step = self.st.upd_order[cid][self.st.upd_pos[cid] + n];
                    self.step_done[step] += 1;
                }
                self.st.counter[cid] -= applied;
                // Advance the deterministic per-target cursor past the
                // whole batch and queue the next update if its operands
                // already arrived.
                self.st.upd_pos[cid] += applied;
                let pos = self.st.upd_pos[cid];
                if pos < self.st.upd_order[cid].len() && self.st.upd_ready[cid][pos] {
                    let (bi, bj) = self.bm.block_coords(cid);
                    let nk = self.st.upd_order[cid][pos];
                    self.push_task(Task::Ssssm { i: bi, j: bj, k: nk });
                }
                if self.st.counter[cid] == 0 {
                    self.maybe_queue_panel(cid);
                }
                self.advance_front();
            }
        }
    }

    /// Book-keeping common to completed tasks (level-set accounting and
    /// the lookahead front).
    fn task_done(&mut self, step: usize) {
        self.remaining -= 1;
        self.step_done[step] += 1;
        self.advance_front();
    }

    /// Marks an owned block finished, ships it, and triggers dependents.
    fn finish_block(&mut self, id: usize, step: usize, role: BlockRole) {
        self.st.finished[id] = true;
        self.task_done(step);
        let (bi, bj) = self.bm.block_coords(id);
        let dests = match role {
            BlockRole::DiagFactor => self.tg.diag_destinations(self.bm, self.owners, bi),
            BlockRole::LPanel => self.tg.l_panel_destinations(self.bm, self.owners, bi, bj),
            BlockRole::UPanel => self.tg.u_panel_destinations(self.bm, self.owners, bi, bj),
            other => unreachable!("factorisation never produces {other:?}"),
        };
        // Serialise the block once for the whole fan-out; the Arc clones
        // handed to each mailbox share the buffer. When every dependent is
        // local no payload is materialised at all. The mailbox still
        // charges full per-edge bytes — the wire cost model is unchanged.
        let mut payload: Option<Arc<[S]>> = None;
        for dest in dests {
            if dest == self.rank {
                continue;
            }
            let values = match &payload {
                Some(p) => p.clone(),
                None => {
                    let vals =
                        self.st.my_blocks[id].as_ref().expect("finished block present").values();
                    self.mem.payload_allocs += 1;
                    self.mem.bytes_copied += std::mem::size_of_val(vals) as u64;
                    payload.insert(Arc::from(vals)).clone()
                }
            };
            self.mailbox.send(dest, BlockMsg { bi, bj, role, values });
        }
        // Local trigger (a rank is trivially a "destination" of itself).
        self.on_block_available(bi, bj, role);
    }

    fn handle_msg(&mut self, msg: BlockMsg<S>) {
        // Steal traffic is not operand fan-out: intercept it before the
        // remote-caching path (a grant's target copy must never enter the
        // shared operand tables).
        match msg.role {
            BlockRole::StealGrant { pos, width } => {
                self.on_steal_grant(msg, pos as usize, width as usize);
                return;
            }
            BlockRole::StealResult => {
                self.on_steal_result(msg);
                return;
            }
            _ => {}
        }
        let id = self.bm.block_id(msg.bi, msg.bj).expect("pattern of shipped block is replicated");
        match &mut self.st.remote[id] {
            Some(cached) => {
                // Pattern cache hit: the CSC structure is already built;
                // memcpy the values into the cached block's buffer.
                let dst = cached.values_mut();
                assert_eq!(msg.values.len(), dst.len(), "shipped values do not match pattern");
                dst.copy_from_slice(&msg.values);
                self.mem.pattern_cache_hits += 1;
            }
            slot => {
                // First receive: build the structure from the replicated
                // pattern once; later receives for this block reuse it.
                let tpl = self.bm.block(id);
                assert_eq!(msg.values.len(), tpl.nnz(), "shipped values do not match pattern");
                *slot = Some(CscMatrix::from_parts_unchecked(
                    tpl.nrows(),
                    tpl.ncols(),
                    tpl.col_ptr().to_vec(),
                    tpl.row_idx().to_vec(),
                    msg.values.to_vec(),
                ));
            }
        }
        self.mem.bytes_copied += (msg.values.len() * S::WIDTH) as u64;
        self.on_block_available(msg.bi, msg.bj, msg.role);
    }

    /// Marks the SSSSM update `(coords of cid, k)` as operand-complete
    /// and queues it iff it is the next update in the target's
    /// deterministic (ascending-`k`) application order.
    fn update_ready(&mut self, cid: usize, k: usize) {
        let idx = self.st.upd_order[cid].binary_search(&k).expect("update in target's order");
        self.st.upd_ready[cid][idx] = true;
        if idx == self.st.upd_pos[cid] && !self.loans.contains_key(&cid) {
            let (bi, bj) = self.bm.block_coords(cid);
            self.push_task(Task::Ssssm { i: bi, j: bj, k });
        }
    }

    /// A block (local or remote) became available in the given role:
    /// release whatever it gates (Fig. 9's dependency-breaking rules).
    fn on_block_available(&mut self, bi: usize, bj: usize, role: BlockRole) {
        // Copy the shared references out so iterating the task graph does
        // not freeze `self` (the old code materialised Vecs per event to
        // work around exactly that borrow).
        let bm = self.bm;
        let tg = self.tg;
        let id = bm.block_id(bi, bj).expect("available block exists in the pattern");
        self.st.avail[id] = true;
        match role {
            BlockRole::DiagFactor => {
                let k = bi;
                // Release owned panels of block row / column k whose
                // updates are already done.
                for id in tg.u_panels[k].iter().filter_map(|&j| bm.block_id(k, j)) {
                    if self.owned(id) {
                        self.maybe_queue_panel(id);
                    }
                }
                for id in tg.l_panels[k].iter().filter_map(|&i| bm.block_id(i, k)) {
                    if self.owned(id) {
                        self.maybe_queue_panel(id);
                    }
                }
            }
            BlockRole::LPanel => {
                let (i, k) = (bi, bj);
                for &j in &tg.u_panels[k] {
                    if let Some(cid) = bm.block_id(i, j) {
                        if self.owned(cid) && self.avail_at(k, j) {
                            self.update_ready(cid, k);
                        }
                    }
                }
            }
            BlockRole::UPanel => {
                let (k, j) = (bi, bj);
                for &i in &tg.l_panels[k] {
                    if let Some(cid) = bm.block_id(i, j) {
                        if self.owned(cid) && self.avail_at(i, k) {
                            self.update_ready(cid, k);
                        }
                    }
                }
            }
            other => panic!("unexpected message role {other:?} during factorisation"),
        }
    }

    // ---- cross-rank SSSSM work stealing -----------------------------

    /// Advertises this rank as hungry (idle with work still owed).
    fn mark_hungry(&self) {
        let _ = self.board.slots[self.rank].compare_exchange(
            0,
            1,
            AtomicOrdering::AcqRel,
            AtomicOrdering::Acquire,
        );
    }

    /// Tries to retire this rank's steal slot. Fails (and the caller must
    /// keep receiving) while a grant is in flight.
    fn try_retire(&self) -> bool {
        let slot = &self.board.slots[self.rank];
        loop {
            let cur = slot.load(AtomicOrdering::Acquire);
            if cur == 2 {
                return false;
            }
            if slot
                .compare_exchange(cur, 3, AtomicOrdering::AcqRel, AtomicOrdering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Victim side: scan the board for hungry ranks and hand each one a
    /// ready update run whose operands it already holds (at most one
    /// grant per thief at a time — the slot handshake enforces it).
    fn service_steals(&mut self) {
        if self.remaining == 0 {
            return;
        }
        for thief in 0..self.board.slots.len() {
            if thief == self.rank || self.board.slots[thief].load(AtomicOrdering::Acquire) != 1 {
                continue;
            }
            if let Some((cid, pos, width)) = self.grant_for(thief) {
                if self.board.slots[thief]
                    .compare_exchange(1, 2, AtomicOrdering::AcqRel, AtomicOrdering::Acquire)
                    .is_ok()
                {
                    self.send_grant(thief, cid, pos, width);
                }
            }
        }
    }

    /// Finds a grantable run for `thief`: the longest prefix of ready
    /// updates at some owned target's cursor whose panel operands the
    /// thief owns or was shipped as a fan-out destination.
    fn grant_for(&self, thief: usize) -> Option<(usize, usize, usize)> {
        for cid in 0..self.bm.num_blocks() {
            if self.st.my_blocks[cid].is_none() || self.loans.contains_key(&cid) {
                continue;
            }
            let order = &self.st.upd_order[cid];
            let pos = self.st.upd_pos[cid];
            if pos >= order.len() || !self.st.upd_ready[cid][pos] {
                continue;
            }
            let (bi, bj) = self.bm.block_coords(cid);
            let mut width = 0usize;
            while pos + width < order.len() && self.st.upd_ready[cid][pos + width] {
                let k = order[pos + width];
                if !self.thief_holds(thief, bi, k) || !self.thief_holds(thief, k, bj) {
                    break;
                }
                width += 1;
            }
            if width > 0 {
                return Some((cid, pos, width));
            }
        }
        None
    }

    /// Whether `thief` holds block `(bi, bj)` as an operand: it owns the
    /// block, or it is among the block's fan-out destinations (the
    /// producer shipped it there when the block finished, so it has
    /// arrived or is in flight).
    fn thief_holds(&self, thief: usize, bi: usize, bj: usize) -> bool {
        let id = self.bm.block_id(bi, bj).expect("operand exists in the pattern");
        if self.owners.owner_of(id) == thief {
            return true;
        }
        match bi.cmp(&bj) {
            std::cmp::Ordering::Greater => {
                self.tg.l_panel_destinations(self.bm, self.owners, bi, bj).contains(&thief)
            }
            std::cmp::Ordering::Less => {
                self.tg.u_panel_destinations(self.bm, self.owners, bi, bj).contains(&thief)
            }
            std::cmp::Ordering::Equal => {
                self.tg.diag_destinations(self.bm, self.owners, bi).contains(&thief)
            }
        }
    }

    /// Ships a grant: the target's current values plus the `(pos, width)`
    /// span, and freezes the target's cursor until the result returns.
    fn send_grant(&mut self, thief: usize, cid: usize, pos: usize, width: usize) {
        let (bi, bj) = self.bm.block_coords(cid);
        let vals = self.st.my_blocks[cid].as_ref().expect("granted target is owned").values();
        let msg = BlockMsg {
            bi,
            bj,
            role: BlockRole::StealGrant { pos: pos as u32, width: width as u32 },
            values: Arc::from(vals),
        };
        self.sched.steals += 1;
        self.sched.steal_bytes += msg.payload_bytes() as u64;
        self.loans.insert(cid, (pos, width, thief));
        self.steal_records.push(StealRecord { victim: self.rank, thief, bi, bj, pos, width });
        self.mailbox.send(thief, msg);
    }

    /// Thief side: accept a grant. The span's `(k, gid)` pairs come from
    /// the task graph (the per-target chain is global analysis data, not
    /// owner state), and the target is rebuilt from the replicated
    /// pattern plus the shipped values.
    fn on_steal_grant(&mut self, msg: BlockMsg<S>, pos: usize, width: usize) {
        let cid = self.bm.block_id(msg.bi, msg.bj).expect("granted target is replicated");
        let tpl = self.bm.block(cid);
        assert_eq!(msg.values.len(), tpl.nnz(), "granted values do not match pattern");
        let target = CscMatrix::from_parts_unchecked(
            tpl.nrows(),
            tpl.ncols(),
            tpl.col_ptr().to_vec(),
            tpl.row_idx().to_vec(),
            msg.values.to_vec(),
        );
        let chain = self.tg.update_chain(self.bm, cid);
        let span = chain[pos..pos + width].to_vec();
        self.stolen_jobs.push(StolenJob {
            victim: self.owners.owner_of(cid),
            bi: msg.bi,
            bj: msg.bj,
            span,
            target,
        });
        self.try_run_stolen();
    }

    /// Runs every accepted grant whose operands have all arrived; the
    /// rest stay parked until their in-flight operands land.
    fn try_run_stolen(&mut self) {
        let mut i = 0;
        while i < self.stolen_jobs.len() {
            let (bi, bj) = (self.stolen_jobs[i].bi, self.stolen_jobs[i].bj);
            let ready = self.stolen_jobs[i]
                .span
                .iter()
                .all(|&(k, _)| self.avail_at(bi, k) && self.avail_at(k, bj));
            if ready {
                let job = self.stolen_jobs.swap_remove(i);
                self.run_stolen_job(job);
            } else {
                i += 1;
            }
        }
    }

    /// Executes a granted run one update at a time in ascending-k order —
    /// the same route (plan or selector variant) the victim would have
    /// taken on the same operands, so the returned
    /// values are bitwise identical to the victim executing locally (the
    /// batching contract makes one-at-a-time equal to any fused split).
    fn run_stolen_job(&mut self, mut job: StolenJob<S>) {
        let (bi, bj) = (job.bi, job.bj);
        for &(uk, gid) in &job.span {
            let trace_start = self.trace_origin.map(|origin| origin.elapsed());
            let t0 = Instant::now();
            let st = &mut *self.st;
            let a = Self::lookup_operand(self.bm, &st.my_blocks, &st.remote, &st.finished, bi, uk);
            let b = Self::lookup_operand(self.bm, &st.my_blocks, &st.remote, &st.finished, uk, bj);
            let fl = self.tg.ssssm_flops[gid];
            let route = st.plans.route_ssssm(self.selector, gid, fl, a, b, &job.target);
            self.timed.ssssm(route, a, b, &mut job.target, &mut st.scratch, fl);
            self.tasks.ssssm += 1;
            self.busy += t0.elapsed();
            if let (Some(origin), Some(start)) = (self.trace_origin, trace_start) {
                self.trace.push(TraceEvent {
                    rank: self.rank,
                    task: Task::Ssssm { i: bi, j: bj, k: uk },
                    start,
                    end: origin.elapsed(),
                });
            }
        }
        let msg = BlockMsg {
            bi,
            bj,
            role: BlockRole::StealResult,
            values: Arc::from(job.target.values()),
        };
        self.sched.steal_bytes += msg.payload_bytes() as u64;
        self.mailbox.send(job.victim, msg);
        let _ = self.board.slots[self.rank].compare_exchange(
            2,
            0,
            AtomicOrdering::AcqRel,
            AtomicOrdering::Acquire,
        );
    }

    /// Victim side: fold a returned run back in — exactly the
    /// book-keeping [`Post::Update`] does for a locally executed run,
    /// with the values memcpy'd from the result payload.
    fn on_steal_result(&mut self, msg: BlockMsg<S>) {
        let cid = self.bm.block_id(msg.bi, msg.bj).expect("result target is owned here");
        let (pos, width, _thief) =
            self.loans.remove(&cid).expect("steal result without a live loan");
        debug_assert_eq!(self.st.upd_pos[cid], pos, "loan cursor moved while on loan");
        let blk = self.st.my_blocks[cid].as_mut().expect("loaned target is owned");
        assert_eq!(msg.values.len(), blk.nnz(), "returned values do not match pattern");
        blk.values_mut().copy_from_slice(&msg.values);
        for n in 0..width {
            let step = self.st.upd_order[cid][pos + n];
            self.step_done[step] += 1;
        }
        self.remaining -= width;
        self.st.counter[cid] -= width;
        self.st.upd_pos[cid] += width;
        let next = self.st.upd_pos[cid];
        if next < self.st.upd_order[cid].len() && self.st.upd_ready[cid][next] {
            let nk = self.st.upd_order[cid][next];
            self.push_task(Task::Ssssm { i: msg.bi, j: msg.bj, k: nk });
        }
        if self.st.counter[cid] == 0 {
            self.maybe_queue_panel(cid);
        }
        self.advance_front();
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

    fn check_against_sequential(p: usize, mode: ScheduleMode, seed: u64) {
        let (a, bm0, tg) = build(60, 8, seed);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());

        let mut seq_bm = bm0.clone();
        factor_sequential(&mut seq_bm, &tg, &sel, 0.0);

        let mut dist_bm = bm0;
        let owners = OwnerMap::balanced(&dist_bm, ProcessGrid::new(p), &tg);
        let cfg = FactorConfig::with_mode(mode);
        let run = factor_distributed_checked(&mut dist_bm, &tg, &owners, &sel, 0.0, &cfg).unwrap();
        assert_eq!(run.stats.busy.len(), p);

        let d1 = seq_bm.to_csc().to_dense();
        let d2 = dist_bm.to_csc().to_dense();
        let diff = d1.max_abs_diff(&d2);
        let scale = d1.norm_max().max(1.0);
        assert!(
            diff / scale < 1e-10,
            "p={p} mode={mode:?} seed={seed}: factors differ by {}",
            diff / scale
        );
    }

    #[test]
    fn single_rank_sync_free_matches_sequential() {
        check_against_sequential(1, ScheduleMode::SyncFree, 1);
    }

    #[test]
    fn four_ranks_sync_free_matches_sequential() {
        for seed in [2, 3] {
            check_against_sequential(4, ScheduleMode::SyncFree, seed);
        }
    }

    #[test]
    fn six_ranks_sync_free_matches_sequential() {
        check_against_sequential(6, ScheduleMode::SyncFree, 4);
    }

    #[test]
    fn level_set_matches_sequential() {
        for p in [2, 4] {
            check_against_sequential(p, ScheduleMode::LevelSet, 5);
        }
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
        check_against_sequential(8, ScheduleMode::SyncFree, 7);
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
        assert!(run.lost.is_empty());
        assert!(run.stats.dropped_msgs == 0);
    }

    #[test]
    fn planned_run_is_bitwise_identical_to_unplanned() {
        // "Unplanned" is a selector whose planned gates are closed: no
        // plan is built or replayed, and the factor keeps its bits.
        for mode in [ScheduleMode::SyncFree, ScheduleMode::LevelSet] {
            for p in [1usize, 4] {
                let (a, bm0, tg) = build(60, 8, 15);
                let owners = OwnerMap::block_cyclic(&bm0, ProcessGrid::new(p));
                let cfg = FactorConfig::with_mode(mode);

                let sel = KernelSelector::new(a.nnz(), Thresholds::default());
                let mut planned_bm = bm0.clone();
                let run =
                    factor_distributed_checked(&mut planned_bm, &tg, &owners, &sel, 0.0, &cfg)
                        .unwrap();
                let closed = KernelSelector::new(a.nnz(), Thresholds::unplanned());
                let mut plain_bm = bm0;
                let plain =
                    factor_distributed_checked(&mut plain_bm, &tg, &owners, &closed, 0.0, &cfg)
                        .unwrap();
                assert_eq!(
                    planned_bm.to_csc().values(),
                    plain_bm.to_csc().values(),
                    "mode={mode:?} p={p}: planned factor diverged"
                );

                let mem = run.report.total_mem();
                assert!(mem.planned_calls > 0, "mode={mode:?} p={p}: no planned calls");
                assert!(mem.index_searches_avoided > 0);
                assert!(mem.plan_bytes > 0);

                let mem = plain.report.total_mem();
                assert_eq!(mem.planned_calls, 0, "mode={mode:?} p={p}");
                assert_eq!(mem.index_searches_avoided, 0);
                assert_eq!(mem.plan_bytes, 0);
                assert_eq!(mem.plan_build_ns, 0);
            }
        }
    }

    #[test]
    fn planned_calls_cover_every_task_when_gates_are_open() {
        // With every planned gate pinned open, every kernel call on
        // every rank goes through a plan — except an SSSSM onto a full
        // target, which never has one (a plan resolves nothing where
        // row `r` sits at `j·m + r`). (The calibrated defaults
        // close the panel/SSSSM gates above their crossovers, so open
        // them explicitly — coverage here guards the executor wiring,
        // not the selector policy.)
        let (a, mut bm, tg) = build(60, 8, 17);
        let open = Thresholds {
            getrf_planned: f64::INFINITY,
            gessm_planned: f64::INFINITY,
            tstrf_planned: f64::INFINITY,
            ssssm_planned: f64::INFINITY,
            ..Thresholds::default()
        };
        let sel = KernelSelector::new(a.nnz(), open);
        let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
        let run =
            factor_distributed_checked(&mut bm, &tg, &owners, &sel, 0.0, &FactorConfig::default())
                .unwrap();
        let full_targets = tg
            .ssssm
            .iter()
            .filter(|&&(i, j, _)| is_full(bm.block(bm.block_id(i, j).expect("target exists"))))
            .count();
        assert!(full_targets > 0 && full_targets < tg.ssssm.len(), "fixture covers both sides");
        let total_tasks = bm.nblk()
            + tg.u_panels.iter().map(|v| v.len()).sum::<usize>()
            + tg.l_panels.iter().map(|v| v.len()).sum::<usize>()
            + tg.ssssm.len();
        assert_eq!(run.report.total_mem().planned_calls, (total_tasks - full_targets) as u64);
    }

    #[test]
    fn lost_message_surfaces_as_dist_error_not_hang() {
        let (a, mut bm, tg) = build(60, 8, 2);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
        // Drop every message permanently: zero retry budget, certain drop.
        let cfg = FactorConfig::default()
            .with_fault(FaultPlan::reliable(1).with_drops(1.0, 0, Duration::ZERO))
            .with_stall_timeout(Duration::from_millis(400));
        let t0 = Instant::now();
        let err = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 0.0, &cfg)
            .expect_err("run must fail when all messages are lost");
        assert!(t0.elapsed() < Duration::from_secs(30), "error must beat the old 60s hang");
        assert!(!err.missing.is_empty(), "error must name missing blocks: {err}");
        let text = err.to_string();
        assert!(text.contains("rank"), "error names the blocked rank: {text}");
        assert!(text.contains("missing"), "error names missing operands: {text}");
    }
}

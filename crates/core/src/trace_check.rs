//! Schedule-trace validator: proves, after the fact, that a distributed
//! factorisation run respected every dependency the synchronisation-free
//! array (§4.4) is supposed to enforce.
//!
//! The validator consumes the [`TraceEvent`] timeline and the message
//! logs of a [`FactorRun`] and checks four invariant families:
//!
//! 1. **Coverage / counters-at-zero** — every task of the static
//!    [`TaskGraph`] (one panel op per block plus every SSSSM triple)
//!    appears in the trace *exactly once*. A missing task means a
//!    dependency counter never reached zero; a duplicate or unexpected
//!    task means a counter was decremented twice or a kernel fired
//!    without being released.
//! 2. **Wall-clock dependency order** — on the shared clock, no GESSM or
//!    TSTRF of step `k` starts before GETRF(`k`) ends, no
//!    SSSSM(`i`,`j`,`k`) starts before TSTRF(`i`,`k`) *and*
//!    GESSM(`k`,`j`) end, and no panel operation starts before the last
//!    SSSSM targeting its block ends. This holds across ranks precisely
//!    because the executor records a producer's end time *before*
//!    shipping the produced block.
//! 3. **Ownership** — every task ran on the rank that owns its target
//!    block (the executor never migrates work).
//! 4. **Exactly-once delivery** — the multiset of sender-side
//!    transmissions and the multiset of receiver-side deliveries both
//!    equal the multiset the task graph prescribes: each finished block
//!    goes to exactly the remote ranks whose pending kernels consume it,
//!    once each, and nothing else moves.
//!
//! All violations are collected (not fail-fast) so a test failure under
//! an adversarial [`pangulu_comm::FaultPlan`] shows the full blast
//! radius at once.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use pangulu_comm::{BlockRole, DeliveryRecord};

use crate::block::BlockMatrix;
use crate::dist::{FactorRun, TraceEvent};
use crate::layout::OwnerMap;
use crate::task::{Task, TaskGraph};

/// One invariant violation found in a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A task the graph prescribes never ran (its counter never hit zero).
    MissingTask {
        /// The task that never appeared in the trace.
        task: Task,
    },
    /// A task ran more than once.
    DuplicateTask {
        /// The repeated task.
        task: Task,
        /// How many times it appeared.
        count: usize,
    },
    /// A task ran that the graph does not contain.
    UnexpectedTask {
        /// The rogue task.
        task: Task,
    },
    /// A task ran on a rank that does not own its target block.
    WrongRank {
        /// The misplaced task.
        task: Task,
        /// The rank that executed it.
        ran_on: usize,
        /// The rank that owns the target block.
        owner: usize,
    },
    /// A task's recorded end precedes its start.
    NegativeSpan {
        /// The offending task.
        task: Task,
    },
    /// A task started before one of its dependencies ended.
    ClockOrder {
        /// The task that started too early.
        task: Task,
        /// The dependency it failed to wait for.
        dep: Task,
        /// The task's recorded start.
        start: Duration,
        /// The dependency's recorded end.
        dep_end: Duration,
    },
    /// A message the task graph prescribes was never transmitted (or was
    /// the one a fault plan loses).
    MissingSend {
        /// The prescribed transfer.
        rec: DeliveryRecord,
    },
    /// A message was transmitted that the task graph does not prescribe,
    /// or was transmitted more than once.
    ExtraSend {
        /// The rogue transfer.
        rec: DeliveryRecord,
    },
    /// A prescribed message was never delivered.
    MissingDelivery {
        /// The undelivered transfer.
        rec: DeliveryRecord,
    },
    /// A message was delivered more often than prescribed (or not at all
    /// prescribed).
    ExtraDelivery {
        /// The over-delivered transfer.
        rec: DeliveryRecord,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingTask { task } => {
                write!(f, "task {task:?} never ran (dependency counter never reached zero)")
            }
            Violation::DuplicateTask { task, count } => {
                write!(f, "task {task:?} ran {count} times")
            }
            Violation::UnexpectedTask { task } => {
                write!(f, "task {task:?} is not in the task graph")
            }
            Violation::WrongRank { task, ran_on, owner } => {
                write!(f, "task {task:?} ran on rank {ran_on}, but rank {owner} owns its target")
            }
            Violation::NegativeSpan { task } => {
                write!(f, "task {task:?} recorded end < start")
            }
            Violation::ClockOrder { task, dep, start, dep_end } => write!(
                f,
                "task {task:?} started at {start:?}, before its dependency {dep:?} ended at {dep_end:?}"
            ),
            Violation::MissingSend { rec } => write!(
                f,
                "block ({},{}) as {:?} was never sent {} -> {}",
                rec.bi, rec.bj, rec.role, rec.from, rec.to
            ),
            Violation::ExtraSend { rec } => write!(
                f,
                "unprescribed or repeated send of block ({},{}) as {:?} {} -> {}",
                rec.bi, rec.bj, rec.role, rec.from, rec.to
            ),
            Violation::MissingDelivery { rec } => write!(
                f,
                "block ({},{}) as {:?} never delivered {} -> {}",
                rec.bi, rec.bj, rec.role, rec.from, rec.to
            ),
            Violation::ExtraDelivery { rec } => write!(
                f,
                "block ({},{}) as {:?} over-delivered {} -> {}",
                rec.bi, rec.bj, rec.role, rec.from, rec.to
            ),
        }
    }
}

/// The validator's verdict on one run.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
    /// Tasks the graph prescribed (and the trace was checked against).
    pub tasks_checked: usize,
    /// Remote block transfers the graph prescribed.
    pub transfers_checked: usize,
}

impl TraceReport {
    /// True when the run upheld every invariant.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable digest if the run violated anything.
    pub fn assert_valid(&self) {
        if !self.is_valid() {
            let mut msg = format!("{} schedule-trace violations:\n", self.violations.len());
            for v in self.violations.iter().take(20) {
                msg.push_str(&format!("  - {v}\n"));
            }
            if self.violations.len() > 20 {
                msg.push_str(&format!("  ... and {} more\n", self.violations.len() - 20));
            }
            panic!("{msg}");
        }
    }
}

/// The full set of tasks the graph prescribes.
fn expected_tasks(tg: &TaskGraph) -> Vec<Task> {
    let mut tasks = Vec::new();
    for k in 0..tg.nblk {
        tasks.push(Task::Getrf { k });
        for &j in &tg.u_panels[k] {
            tasks.push(Task::Gessm { k, j });
        }
        for &i in &tg.l_panels[k] {
            tasks.push(Task::Tstrf { i, k });
        }
    }
    for &(i, j, k) in &tg.ssssm {
        tasks.push(Task::Ssssm { i, j, k });
    }
    tasks
}

/// Validates the kernel timeline alone (coverage, ownership, wall-clock
/// dependency order). Usable directly on the [`FactorRun::trace`] of a
/// [`crate::dist::FactorConfig::traced`] run.
pub fn validate_events(
    bm: &BlockMatrix,
    tg: &TaskGraph,
    owners: &OwnerMap,
    events: &[TraceEvent],
) -> TraceReport {
    let mut report = TraceReport::default();
    let expected = expected_tasks(tg);
    report.tasks_checked = expected.len();

    // --- Coverage: exactly once each, nothing extra. ---
    let mut seen: HashMap<Task, usize> = HashMap::new();
    for e in events {
        *seen.entry(e.task).or_insert(0) += 1;
    }
    for t in &expected {
        match seen.get(t) {
            None => report.violations.push(Violation::MissingTask { task: *t }),
            Some(1) => {}
            Some(&n) => report.violations.push(Violation::DuplicateTask { task: *t, count: n }),
        }
    }
    {
        let expected_set: std::collections::HashSet<Task> = expected.iter().copied().collect();
        for t in seen.keys() {
            if !expected_set.contains(t) {
                report.violations.push(Violation::UnexpectedTask { task: *t });
            }
        }
    }

    // --- Ownership + sane spans. ---
    for e in events {
        let (bi, bj) = e.task.target();
        if let Some(id) = bm.block_id(bi, bj) {
            let owner = owners.owner_of(id);
            if e.rank != owner {
                report.violations.push(Violation::WrongRank {
                    task: e.task,
                    ran_on: e.rank,
                    owner,
                });
            }
        }
        if e.end < e.start {
            report.violations.push(Violation::NegativeSpan { task: e.task });
        }
    }

    // --- Wall-clock dependency order. ---
    // End time of each produced operand, keyed by what it produced. On a
    // duplicated task the *latest* end is the conservative bound.
    let mut diag_end: HashMap<usize, Duration> = HashMap::new();
    let mut l_end: HashMap<(usize, usize), Duration> = HashMap::new();
    let mut u_end: HashMap<(usize, usize), Duration> = HashMap::new();
    let mut update_end: HashMap<(usize, usize), (Duration, Task)> = HashMap::new();
    for e in events {
        match e.task {
            Task::Getrf { k } => {
                let t = diag_end.entry(k).or_default();
                *t = (*t).max(e.end);
            }
            Task::Gessm { k, j } => {
                let t = u_end.entry((k, j)).or_default();
                *t = (*t).max(e.end);
            }
            Task::Tstrf { i, k } => {
                let t = l_end.entry((i, k)).or_default();
                *t = (*t).max(e.end);
            }
            Task::Ssssm { i, j, .. } => {
                let slot = update_end.entry((i, j)).or_insert((Duration::ZERO, e.task));
                if e.end >= slot.0 {
                    *slot = (e.end, e.task);
                }
            }
        }
    }
    for e in events {
        match e.task {
            Task::Getrf { k } => {
                // The diagonal's own updates must be done first.
                if let Some(&(end, dep)) = update_end.get(&(k, k)) {
                    if e.start < end {
                        report.violations.push(Violation::ClockOrder {
                            task: e.task,
                            dep,
                            start: e.start,
                            dep_end: end,
                        });
                    }
                }
            }
            Task::Gessm { k, j } => {
                check_dep(&mut report, e, Task::Getrf { k }, diag_end.get(&k).copied());
                if let Some(&(end, dep)) = update_end.get(&(k, j)) {
                    if e.start < end {
                        report.violations.push(Violation::ClockOrder {
                            task: e.task,
                            dep,
                            start: e.start,
                            dep_end: end,
                        });
                    }
                }
            }
            Task::Tstrf { i, k } => {
                check_dep(&mut report, e, Task::Getrf { k }, diag_end.get(&k).copied());
                if let Some(&(end, dep)) = update_end.get(&(i, k)) {
                    if e.start < end {
                        report.violations.push(Violation::ClockOrder {
                            task: e.task,
                            dep,
                            start: e.start,
                            dep_end: end,
                        });
                    }
                }
            }
            Task::Ssssm { i, j, k } => {
                check_dep(&mut report, e, Task::Tstrf { i, k }, l_end.get(&(i, k)).copied());
                check_dep(&mut report, e, Task::Gessm { k, j }, u_end.get(&(k, j)).copied());
            }
        }
    }

    // --- Per-target ascending-k serialisation. ---
    // Every policy reduces a target's updates in ascending k, one at a
    // time: on the shared wall clock, update k may not start before
    // every lower-k update of the same target ended.
    // This is what makes the factors bitwise identical across policies.
    type UpdateSpan = (usize, Duration, Duration, Task);
    let mut per_target: HashMap<(usize, usize), Vec<UpdateSpan>> = HashMap::new();
    for e in events {
        if let Task::Ssssm { i, j, k } = e.task {
            per_target.entry((i, j)).or_default().push((k, e.start, e.end, e.task));
        }
    }
    for list in per_target.values_mut() {
        list.sort_by_key(|&(k, ..)| k);
        for w in list.windows(2) {
            let (_, _, prev_end, prev_task) = w[0];
            let (_, start, _, task) = w[1];
            if start < prev_end {
                report.violations.push(Violation::ClockOrder {
                    task,
                    dep: prev_task,
                    start,
                    dep_end: prev_end,
                });
            }
        }
    }
    report
}

fn check_dep(report: &mut TraceReport, e: &TraceEvent, dep: Task, dep_end: Option<Duration>) {
    // A missing producer is already reported as MissingTask.
    if let Some(end) = dep_end {
        if e.start < end {
            report.violations.push(Violation::ClockOrder {
                task: e.task,
                dep,
                start: e.start,
                dep_end: end,
            });
        }
    }
}

/// The remote transfers the task graph prescribes: each finished block to
/// every rank owning a task it releases, minus the producer itself.
fn expected_transfers(
    bm: &BlockMatrix,
    tg: &TaskGraph,
    owners: &OwnerMap,
) -> HashMap<DeliveryRecord, usize> {
    let mut expected: HashMap<DeliveryRecord, usize> = HashMap::new();
    for id in 0..bm.num_blocks() {
        let (bi, bj) = bm.block_coords(id);
        let role = match bi.cmp(&bj) {
            Ordering::Equal => BlockRole::DiagFactor,
            Ordering::Less => BlockRole::UPanel,
            Ordering::Greater => BlockRole::LPanel,
        };
        let from = owners.owner_of(id);
        for to in tg.destinations(owners, id).into_iter().filter(|&to| to != from) {
            *expected.entry(DeliveryRecord::new(from, to, bi, bj, role)).or_insert(0) += 1;
        }
    }
    expected
}

/// Compares an observed log against the prescribed multiset, reporting
/// one violation per missing / extra occurrence.
fn check_multiset(
    report: &mut TraceReport,
    expected: &HashMap<DeliveryRecord, usize>,
    observed: &[DeliveryRecord],
    missing: fn(DeliveryRecord) -> Violation,
    extra: fn(DeliveryRecord) -> Violation,
) {
    let mut counts: HashMap<DeliveryRecord, usize> = HashMap::new();
    for &r in observed {
        *counts.entry(r).or_insert(0) += 1;
    }
    for (&rec, &want) in expected {
        let got = counts.get(&rec).copied().unwrap_or(0);
        for _ in got..want {
            report.violations.push(missing(rec));
        }
        for _ in want..got {
            report.violations.push(extra(rec));
        }
    }
    for (&rec, &got) in &counts {
        if !expected.contains_key(&rec) {
            for _ in 0..got {
                report.violations.push(extra(rec));
            }
        }
    }
}

/// Validates a full [`FactorRun`]: the kernel timeline checks of
/// [`validate_events`] plus exactly-once message delivery against the
/// task graph's destination sets.
pub fn validate_run(
    bm: &BlockMatrix,
    tg: &TaskGraph,
    owners: &OwnerMap,
    run: &FactorRun,
) -> TraceReport {
    let mut report = validate_events(bm, tg, owners, &run.trace);
    let expected = expected_transfers(bm, tg, owners);
    report.transfers_checked = expected.values().sum();
    check_multiset(
        &mut report,
        &expected,
        &run.sent,
        |rec| Violation::MissingSend { rec },
        |rec| Violation::ExtraSend { rec },
    );
    check_multiset(
        &mut report,
        &expected,
        &run.received,
        |rec| Violation::MissingDelivery { rec },
        |rec| Violation::ExtraDelivery { rec },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{factor_distributed_checked, FactorConfig};
    use crate::task::TaskGraph;
    use pangulu_comm::ProcessGrid;
    use pangulu_kernels::select::{KernelSelector, Thresholds};
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn checked_run(p: usize, seed: u64) -> (BlockMatrix, TaskGraph, OwnerMap, FactorRun) {
        let a = ensure_diagonal(&gen::random_sparse(64, 0.12, seed)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let mut bm = BlockMatrix::from_filled(&f, 9).unwrap();
        let tg = TaskGraph::build(&bm);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(p), &tg);
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        let run = factor_distributed_checked(
            &mut bm,
            &tg,
            &owners,
            &sel,
            1e-12,
            &FactorConfig::default().traced(),
        )
        .unwrap();
        (bm, tg, owners, run)
    }

    #[test]
    fn clean_run_validates() {
        let (bm, tg, owners, run) = checked_run(4, 1);
        let report = validate_run(&bm, &tg, &owners, &run);
        report.assert_valid();
        assert!(report.tasks_checked > 0);
        assert!(report.transfers_checked > 0);
    }

    #[test]
    fn single_rank_run_validates_with_zero_transfers() {
        let (bm, tg, owners, run) = checked_run(1, 2);
        let report = validate_run(&bm, &tg, &owners, &run);
        report.assert_valid();
        assert_eq!(report.transfers_checked, 0);
        assert!(run.sent.is_empty());
    }

    #[test]
    fn dropped_event_is_a_missing_task() {
        let (bm, tg, owners, mut run) = checked_run(4, 3);
        let removed = run.trace.pop().expect("non-empty trace");
        let report = validate_run(&bm, &tg, &owners, &run);
        assert!(report.violations.contains(&Violation::MissingTask { task: removed.task }));
    }

    #[test]
    fn duplicated_event_is_detected() {
        let (bm, tg, owners, mut run) = checked_run(4, 4);
        let dup = run.trace[0];
        run.trace.push(dup);
        let report = validate_run(&bm, &tg, &owners, &run);
        assert!(report.violations.iter().any(
            |v| matches!(v, Violation::DuplicateTask { task, count: 2 } if *task == dup.task)
        ));
    }

    #[test]
    fn tampered_clock_is_detected() {
        let (bm, tg, owners, mut run) = checked_run(4, 5);
        // Pull some SSSSM's start before its L operand finished.
        let idx = run
            .trace
            .iter()
            .position(|e| matches!(e.task, Task::Ssssm { .. }) && e.start > Duration::ZERO)
            .expect("an SSSSM with a nonzero start");
        run.trace[idx].start = Duration::ZERO;
        run.trace[idx].end = run.trace[idx].end.max(Duration::from_nanos(1));
        let report = validate_run(&bm, &tg, &owners, &run);
        assert!(
            report.violations.iter().any(|v| matches!(v, Violation::ClockOrder { .. })),
            "rewound SSSSM start must violate clock order: {:?}",
            report.violations
        );
    }

    #[test]
    fn forged_delivery_is_detected() {
        let (bm, tg, owners, mut run) = checked_run(4, 6);
        if let Some(&first) = run.received.first() {
            run.received.push(first); // duplicate delivery
            let report = validate_run(&bm, &tg, &owners, &run);
            assert!(report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ExtraDelivery { rec } if *rec == first)));
        }
    }

    #[test]
    fn suppressed_send_is_detected() {
        let (bm, tg, owners, mut run) = checked_run(4, 7);
        if !run.sent.is_empty() {
            let removed = run.sent.swap_remove(0);
            let report = validate_run(&bm, &tg, &owners, &run);
            assert!(report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MissingSend { rec } if *rec == removed)));
        }
    }

    #[test]
    fn wrong_rank_is_detected() {
        let (bm, tg, owners, mut run) = checked_run(4, 8);
        let e = &mut run.trace[0];
        e.rank = (e.rank + 1) % 4;
        let report = validate_run(&bm, &tg, &owners, &run);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::WrongRank { .. })));
    }
}

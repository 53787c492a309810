//! Discrete-event scalability simulator.
//!
//! The paper's 1→128 GPU scaling experiments cannot run on this machine
//! (one core, no GPUs), so they are *replayed*: the real task DAG of a
//! factorisation — the same tasks, dependencies, owners and message
//! payloads the threaded executor obeys — is list-scheduled under the
//! platform cost model of [`pangulu_comm::cost`]. The scaling shape
//! (critical path vs. per-step parallelism vs. message volume) is a
//! property of the DAG and the scheduling policy, which is exactly what
//! this engine computes. See `DESIGN.md`, substitution table.
//!
//! The engine is generic over [`SimTask`] lists so the supernodal
//! baseline's DAG (built by the bench harness from
//! `pangulu-supernodal`) runs through the same simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pangulu_comm::cost::{KernelCostClass, PlatformProfile};

use crate::block::BlockMatrix;
use crate::layout::OwnerMap;
use crate::task::TaskGraph;

/// One dependency edge: the producing task and the payload that must
/// travel if producer and consumer live on different ranks.
#[derive(Debug, Clone, Copy)]
pub struct SimDep {
    /// Index of the producing task.
    pub task: usize,
    /// Payload bytes shipped when the edge crosses ranks.
    pub bytes: usize,
}

/// One schedulable task of the simulated run.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Executing rank.
    pub rank: usize,
    /// Cost class (maps to a platform rate).
    pub class: KernelCostClass,
    /// FLOPs charged to the kernel.
    pub flops: f64,
    /// Additional fixed cost (e.g. the baseline's gather/scatter).
    pub extra_cost: f64,
    /// Elimination step / level (the ready-queue ordering key, and the
    /// level-set grouping).
    pub step: usize,
    /// Dependencies.
    pub deps: Vec<SimDep>,
}

/// Scheduling policy of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Greedy sync-free list scheduling (tasks run as soon as operands
    /// arrive and their rank is free; lowest step first).
    SyncFree,
    /// A barrier after every step: step `s+1` starts only after every
    /// rank finished step `s` (the level-set baseline).
    LevelSet,
}

/// Outcome of a simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Per-rank busy time.
    pub busy: Vec<f64>,
    /// Per-rank synchronisation/wait time (`makespan − busy`).
    pub sync_wait: Vec<f64>,
    /// Cross-rank messages (deduplicated per producer → consumer rank).
    pub messages: u64,
    /// Cross-rank payload bytes.
    pub bytes: u64,
    /// Total busy time per cost class: `[Getrf, Trsm, Ssssm, DenseGemm]`.
    pub class_busy: [f64; 4],
}

impl SimResult {
    /// Achieved GFLOP/s given the useful FLOP count.
    pub fn gflops(&self, flops: f64) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            flops / self.makespan / 1e9
        }
    }

    /// Mean per-rank sync wait.
    pub fn mean_sync_wait(&self) -> f64 {
        if self.sync_wait.is_empty() {
            0.0
        } else {
            self.sync_wait.iter().sum::<f64>() / self.sync_wait.len() as f64
        }
    }
}

/// Simulates the task list on `p` ranks under the given profile and
/// barrier mode. Each rank's ready queue runs lowest step first — the
/// executor's step-major order.
pub fn simulate(
    tasks: &[SimTask],
    p: usize,
    profile: &PlatformProfile,
    mode: SimMode,
) -> SimResult {
    // Cross-rank message accounting, deduplicated per (producer,
    // consumer-rank) exactly like the executor's destination lists.
    let mut messages = 0u64;
    let mut bytes = 0u64;
    {
        let mut seen: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for (tid, t) in tasks.iter().enumerate() {
            let _ = tid;
            for d in &t.deps {
                let from = tasks[d.task].rank;
                if from != t.rank && seen.insert((d.task, t.rank)) {
                    messages += 1;
                    bytes += d.bytes as u64;
                }
            }
        }
    }

    let mut finish = vec![f64::NAN; tasks.len()];
    let mut busy = vec![0.0f64; p];
    let mut class_busy = [0.0f64; 4];
    for t in tasks {
        let idx = match t.class {
            KernelCostClass::Getrf => 0,
            KernelCostClass::Trsm => 1,
            KernelCostClass::Ssssm => 2,
            KernelCostClass::DenseGemm => 3,
        };
        class_busy[idx] += profile.kernel_cost(t.class, t.flops) + t.extra_cost;
    }

    let makespan = match mode {
        SimMode::SyncFree => {
            let all: Vec<usize> = (0..tasks.len()).collect();
            run_window(tasks, &all, 0.0, profile, &mut finish, &mut busy)
        }
        SimMode::LevelSet => {
            let max_step = tasks.iter().map(|t| t.step).max().unwrap_or(0);
            let mut by_step: Vec<Vec<usize>> = vec![Vec::new(); max_step + 1];
            for (i, t) in tasks.iter().enumerate() {
                by_step[t.step].push(i);
            }
            // Barrier cost: a latency-bound log-tree reduction.
            let barrier = 2.0 * profile.net_latency * (p.max(2) as f64).log2().ceil();
            let mut clock = 0.0f64;
            for step_tasks in &by_step {
                if step_tasks.is_empty() {
                    continue;
                }
                clock =
                    run_window(tasks, step_tasks, clock, profile, &mut finish, &mut busy) + barrier;
            }
            clock
        }
    };

    let sync_wait = busy.iter().map(|&b| (makespan - b).max(0.0)).collect();
    SimResult { makespan, busy, sync_wait, messages, bytes, class_busy }
}

/// Event-driven list scheduling of `window` (task indices), with every
/// task's start gated at `base` and cross-window dependencies read from
/// the already-filled `finish` times. Returns the window's end time.
fn run_window(
    tasks: &[SimTask],
    window: &[usize],
    base: f64,
    profile: &PlatformProfile,
    finish: &mut [f64],
    busy: &mut [f64],
) -> f64 {
    // Window-local bookkeeping.
    let mut in_window = std::collections::HashMap::with_capacity(window.len());
    for (pos, &t) in window.iter().enumerate() {
        in_window.insert(t, pos);
    }
    let mut indegree = vec![0usize; window.len()];
    let mut ready_at = vec![base; window.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); window.len()];

    for (pos, &tid) in window.iter().enumerate() {
        for d in &tasks[tid].deps {
            if let Some(&dpos) = in_window.get(&d.task) {
                indegree[pos] += 1;
                dependents[dpos].push(pos);
            } else {
                // Producer ran in an earlier window; its message is in
                // flight since then.
                let f = finish[d.task];
                assert!(f.is_finite(), "dependency finished out of order");
                let arrival =
                    f + profile.message_cost(tasks[d.task].rank, tasks[tid].rank, d.bytes);
                ready_at[pos] = ready_at[pos].max(arrival);
            }
        }
    }

    // Event queue of (time, kind, pos): kind 0 = task ready, 1 = finish.
    let mut events: BinaryHeap<Reverse<(OrdF64, u8, usize)>> = BinaryHeap::new();
    // Per-rank ready queue keyed (step, pos); the min-heap pops the
    // lowest step first.
    let mut rank_ready: RankReady = std::collections::HashMap::new();
    let mut rank_busy_until: std::collections::HashMap<usize, f64> =
        std::collections::HashMap::new();

    for pos in 0..window.len() {
        if indegree[pos] == 0 {
            events.push(Reverse((OrdF64(ready_at[pos]), 0, pos)));
        }
    }

    let mut end = base;
    while let Some(Reverse((OrdF64(now), kind, pos))) = events.pop() {
        match kind {
            0 => {
                // Task `pos` became ready.
                let tid = window[pos];
                let r = tasks[tid].rank;
                rank_ready.entry(r).or_default().push(Reverse((tasks[tid].step, pos)));
                try_start(
                    r,
                    now,
                    tasks,
                    window,
                    profile,
                    &mut rank_ready,
                    &mut rank_busy_until,
                    &mut events,
                    busy,
                    finish,
                );
            }
            1 => {
                // Rank owning task `pos` finished it.
                let tid = window[pos];
                let r = tasks[tid].rank;
                end = end.max(now);
                for &dpos in &dependents[pos] {
                    indegree[dpos] -= 1;
                    let dtid = window[dpos];
                    let arrival =
                        now + profile.message_cost(r, tasks[dtid].rank, byte_of(tasks, dtid, tid));
                    ready_at[dpos] = ready_at[dpos].max(arrival);
                    if indegree[dpos] == 0 {
                        events.push(Reverse((OrdF64(ready_at[dpos]), 0, dpos)));
                    }
                }
                try_start(
                    r,
                    now,
                    tasks,
                    window,
                    profile,
                    &mut rank_ready,
                    &mut rank_busy_until,
                    &mut events,
                    busy,
                    finish,
                );
            }
            _ => unreachable!(),
        }
    }
    end
}

/// Payload bytes of the dep edge `producer -> consumer`.
fn byte_of(tasks: &[SimTask], consumer: usize, producer: usize) -> usize {
    tasks[consumer].deps.iter().find(|d| d.task == producer).map(|d| d.bytes).unwrap_or(0)
}

/// Per-rank ready queues: min-heap over (step, pos).
type RankReady = std::collections::HashMap<usize, BinaryHeap<Reverse<(usize, usize)>>>;

#[allow(clippy::too_many_arguments)]
fn try_start(
    r: usize,
    now: f64,
    tasks: &[SimTask],
    window: &[usize],
    profile: &PlatformProfile,
    rank_ready: &mut RankReady,
    rank_busy_until: &mut std::collections::HashMap<usize, f64>,
    events: &mut BinaryHeap<Reverse<(OrdF64, u8, usize)>>,
    busy: &mut [f64],
    finish: &mut [f64],
) {
    let free_at = *rank_busy_until.get(&r).unwrap_or(&0.0);
    if free_at > now {
        return; // rank still executing; revisited at its finish event
    }
    let Some(heap) = rank_ready.get_mut(&r) else { return };
    let Some(Reverse((_, pos))) = heap.pop() else { return };
    let tid = window[pos];
    let cost = profile.kernel_cost(tasks[tid].class, tasks[tid].flops) + tasks[tid].extra_cost;
    let start = now.max(free_at);
    let done = start + cost;
    busy[r] += cost;
    finish[tid] = done;
    rank_busy_until.insert(r, done);
    events.push(Reverse((OrdF64(done), 1, pos)));
}

/// Total-ordered f64 for the event queue (times are finite by
/// construction).
#[derive(PartialEq, PartialOrd)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("event times are finite")
    }
}

/// Builds the PanguLU simulation task list from a real factorisation's
/// block structure, task graph and owner map. Identical dependencies and
/// payloads to the threaded executor.
pub fn pangulu_sim_tasks(bm: &BlockMatrix, tg: &TaskGraph, owners: &OwnerMap) -> Vec<SimTask> {
    let mut tasks: Vec<SimTask> = Vec::new();
    // Panel-op task index per block id, filled below.
    let mut panel_task = vec![usize::MAX; bm.num_blocks()];

    let block_bytes = |id: usize| bm.block(id).nnz() * 8 + 24;

    // One panel task per block (GETRF on the diagonal, solves elsewhere).
    for (id, pt) in panel_task.iter_mut().enumerate() {
        let (bi, bj) = bm.block_coords(id);
        let class = if bi == bj { KernelCostClass::Getrf } else { KernelCostClass::Trsm };
        *pt = tasks.len();
        tasks.push(SimTask {
            rank: owners.owner_of(id),
            class,
            flops: tg.panel_flops[id],
            extra_cost: 0.0,
            step: bi.min(bj),
            deps: Vec::new(),
        });
    }
    // Panel ops depend on their diagonal factor.
    for id in 0..bm.num_blocks() {
        let (bi, bj) = bm.block_coords(id);
        if bi != bj {
            let k = bi.min(bj);
            let diag = bm.block_id(k, k).expect("diag exists");
            tasks[panel_task[id]]
                .deps
                .push(SimDep { task: panel_task[diag], bytes: block_bytes(diag) });
        }
    }
    // SSSSM tasks.
    for (&(i, j, k), &fl) in tg.ssssm.iter().zip(&tg.ssssm_flops) {
        let a_id = bm.block_id(i, k).expect("L operand");
        let b_id = bm.block_id(k, j).expect("U operand");
        let c_id = bm.block_id(i, j).expect("target");
        let tid = tasks.len();
        tasks.push(SimTask {
            rank: owners.owner_of(c_id),
            class: KernelCostClass::Ssssm,
            flops: fl,
            extra_cost: 0.0,
            step: k,
            deps: vec![
                SimDep { task: panel_task[a_id], bytes: block_bytes(a_id) },
                SimDep { task: panel_task[b_id], bytes: block_bytes(b_id) },
            ],
        });
        // The target's panel op waits for this update (same rank: 0 bytes).
        tasks[panel_task[c_id]].deps.push(SimDep { task: tid, bytes: 0 });
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_comm::ProcessGrid;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::ensure_diagonal;
    use pangulu_symbolic::symbolic_fill;

    fn build(n: usize, nb: usize, p: usize) -> (BlockMatrix, TaskGraph, OwnerMap) {
        let a = ensure_diagonal(&gen::circuit(n, 5)).unwrap();
        let f = symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let bm = BlockMatrix::from_filled(&f, nb).unwrap();
        let tg = TaskGraph::build(&bm);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(p), &tg);
        (bm, tg, owners)
    }

    #[test]
    fn single_rank_makespan_is_serial_sum() {
        let (bm, tg, owners) = build(150, 16, 1);
        let tasks = pangulu_sim_tasks(&bm, &tg, &owners);
        let prof = PlatformProfile::a100_like();
        let r = simulate(&tasks, 1, &prof, SimMode::SyncFree);
        let serial: f64 =
            tasks.iter().map(|t| prof.kernel_cost(t.class, t.flops) + t.extra_cost).sum();
        assert!((r.makespan - serial).abs() < 1e-12 * serial.max(1.0));
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn more_ranks_never_slower_in_ideal_dag() {
        // A pure fan-out DAG (independent tasks) must scale linearly.
        let tasks: Vec<SimTask> = (0..64)
            .map(|i| SimTask {
                rank: i % 8,
                class: KernelCostClass::Ssssm,
                flops: 1e9,
                extra_cost: 0.0,
                step: 0,
                deps: vec![],
            })
            .collect();
        let prof = PlatformProfile::a100_like();
        let r8 = simulate(&tasks, 8, &prof, SimMode::SyncFree);
        let mut tasks1 = tasks.clone();
        for t in &mut tasks1 {
            t.rank = 0;
        }
        let r1 = simulate(&tasks1, 1, &prof, SimMode::SyncFree);
        assert!(r8.makespan < r1.makespan / 7.0, "{} vs {}", r8.makespan, r1.makespan);
    }

    #[test]
    fn chain_dag_does_not_scale() {
        // A pure chain: makespan identical regardless of ranks.
        let mut tasks: Vec<SimTask> = Vec::new();
        for i in 0..16 {
            tasks.push(SimTask {
                rank: i % 4,
                class: KernelCostClass::Trsm,
                flops: 1e8,
                extra_cost: 0.0,
                step: i,
                deps: if i == 0 { vec![] } else { vec![SimDep { task: i - 1, bytes: 1000 }] },
            });
        }
        let prof = PlatformProfile::a100_like();
        let r = simulate(&tasks, 4, &prof, SimMode::SyncFree);
        let serial: f64 = tasks.iter().map(|t| prof.kernel_cost(t.class, t.flops)).sum();
        assert!(r.makespan >= serial, "chain cannot beat its serial time");
    }

    #[test]
    fn level_set_is_never_faster_than_sync_free() {
        let (bm, tg, owners) = build(200, 12, 4);
        let tasks = pangulu_sim_tasks(&bm, &tg, &owners);
        let prof = PlatformProfile::a100_like();
        let sf = simulate(&tasks, 4, &prof, SimMode::SyncFree);
        let ls = simulate(&tasks, 4, &prof, SimMode::LevelSet);
        assert!(
            ls.makespan >= sf.makespan * 0.999,
            "level-set {} vs sync-free {}",
            ls.makespan,
            sf.makespan
        );
    }

    #[test]
    fn messages_counted_once_per_destination_rank() {
        // One producer feeding two consumers on the same rank: one message.
        let tasks = vec![
            SimTask {
                rank: 0,
                class: KernelCostClass::Getrf,
                flops: 1e6,
                extra_cost: 0.0,
                step: 0,
                deps: vec![],
            },
            SimTask {
                rank: 1,
                class: KernelCostClass::Trsm,
                flops: 1e6,
                extra_cost: 0.0,
                step: 0,
                deps: vec![SimDep { task: 0, bytes: 800 }],
            },
            SimTask {
                rank: 1,
                class: KernelCostClass::Trsm,
                flops: 1e6,
                extra_cost: 0.0,
                step: 0,
                deps: vec![SimDep { task: 0, bytes: 800 }],
            },
        ];
        let r = simulate(&tasks, 2, &PlatformProfile::a100_like(), SimMode::SyncFree);
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes, 800);
    }

    #[test]
    fn sim_task_list_matches_executor_task_count() {
        let (bm, tg, owners) = build(150, 16, 4);
        let tasks = pangulu_sim_tasks(&bm, &tg, &owners);
        assert_eq!(tasks.len(), bm.num_blocks() + tg.ssssm.len());
        let _ = owners;
    }
}

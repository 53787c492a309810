//! The discrete-event simulator must be a faithful model of the real
//! executor: same task DAG, same ownership, therefore **exactly** the
//! same message count and payload bytes. This pins the Figure 12/13
//! scalability methodology to the implementation it claims to model.

use pangulu::comm::{PlatformProfile, ProcessGrid};
use pangulu::core::des::{pangulu_sim_tasks, simulate, simulate_with_policy, SimMode, SimPolicy};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::ensure_diagonal;
use pangulu::sparse::CscMatrix;

fn setup(n: usize, nb: usize, seed: u64) -> (usize, BlockMatrix, TaskGraph) {
    let a = ensure_diagonal(&gen::random_sparse(n, 0.1, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, nb).unwrap();
    let tg = TaskGraph::build(&bm);
    (a.nnz(), bm, tg)
}

#[test]
fn des_message_traffic_matches_executor_exactly() {
    for (p, seed) in [(2usize, 1u64), (4, 2), (6, 3)] {
        let (nnz, mut bm, tg) = setup(80, 8, seed);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(p), &tg);

        let sim_tasks = pangulu_sim_tasks(&bm, &tg, &owners);
        let prof = PlatformProfile::a100_like();
        let sim = simulate(&sim_tasks, p, &prof, SimMode::SyncFree);

        let sel = KernelSelector::new(nnz, Thresholds::default());
        let cfg = FactorConfig::default();
        let real =
            factor_distributed_checked(&mut bm, &tg, &owners, &sel, 1e-12, &cfg).unwrap().stats;

        assert_eq!(
            sim.messages, real.messages,
            "p={p} seed={seed}: DES predicted {} messages, executor sent {}",
            sim.messages, real.messages
        );
        assert_eq!(
            sim.bytes, real.bytes,
            "p={p} seed={seed}: DES predicted {} bytes, executor sent {}",
            sim.bytes, real.bytes
        );
    }
}

#[test]
fn des_task_count_matches_executor_work() {
    let (_, bm, tg) = setup(60, 10, 5);
    let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
    let tasks = pangulu_sim_tasks(&bm, &tg, &owners);
    // One panel op per block plus one task per SSSSM triple.
    assert_eq!(tasks.len(), bm.num_blocks() + tg.ssssm.len());
    // Total simulated FLOPs equal the task graph's accounting.
    let sim_flops: f64 = tasks.iter().map(|t| t.flops).sum();
    assert!((sim_flops - tg.total_flops()).abs() < 1e-6 * tg.total_flops().max(1.0));
}

/// The ready-queue policy changes *when* tasks run, never the task list
/// or the traffic: under `SimPolicy::Priority` the simulator still
/// matches the real executor's message count and bytes exactly (the
/// executor itself runs the Priority policy by default).
#[test]
fn des_priority_policy_traffic_still_matches_executor_exactly() {
    for (p, seed) in [(2usize, 1u64), (4, 2)] {
        let (nnz, mut bm, tg) = setup(80, 8, seed);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(p), &tg);

        let sim_tasks = pangulu_sim_tasks(&bm, &tg, &owners);
        let prof = PlatformProfile::a100_like();
        let sim =
            simulate_with_policy(&sim_tasks, p, &prof, SimMode::SyncFree, SimPolicy::Priority);

        let sel = KernelSelector::new(nnz, Thresholds::default());
        let cfg = FactorConfig::default();
        let real =
            factor_distributed_checked(&mut bm, &tg, &owners, &sel, 1e-12, &cfg).unwrap().stats;

        assert_eq!(sim.messages, real.messages, "p={p} seed={seed}: message counts diverged");
        assert_eq!(sim.bytes, real.bytes, "p={p} seed={seed}: payload bytes diverged");
    }
}

/// The Figure 12–14 scalability study at 128 simulated ranks, over the
/// bench corpus's six shape families at test-sized instances: ordering
/// the ready queues by critical-path priority never lengthens the
/// simulated makespan relative to the legacy Fifo order, and never
/// changes what travels. (The executor's PriorityStealing maps to the
/// same Priority arm in the DES — steal traffic is not modelled.)
#[test]
fn priority_never_slower_than_fifo_at_128_ranks_across_corpus_shapes() {
    let shapes: Vec<(&str, CscMatrix)> = vec![
        ("laplacian_2d", gen::laplacian_2d(12, 12)),
        ("circuit", gen::circuit(400, 21)),
        ("fem_blocked", gen::fem_blocked(120, 5, 2, 13)),
        ("kkt", gen::kkt(240, 112, 7)),
        ("cage_like", gen::cage_like(320, 17)),
        ("dense_banded", gen::dense_banded(240, 12, 0.5, 9)),
    ];
    let p = 128;
    let prof = PlatformProfile::a100_like();
    for (tag, raw) in shapes {
        let a = ensure_diagonal(&raw).unwrap();
        let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
        let bm = BlockMatrix::from_filled(&f, 16).unwrap();
        let tg = TaskGraph::build(&bm);
        let owners = OwnerMap::balanced(&bm, ProcessGrid::new(p), &tg);
        let tasks = pangulu_sim_tasks(&bm, &tg, &owners);

        let fifo = simulate_with_policy(&tasks, p, &prof, SimMode::SyncFree, SimPolicy::Fifo);
        let pri = simulate_with_policy(&tasks, p, &prof, SimMode::SyncFree, SimPolicy::Priority);

        assert!(
            pri.makespan <= fifo.makespan * (1.0 + 1e-9),
            "{tag}: priority makespan {} exceeds fifo {}",
            pri.makespan,
            fifo.makespan
        );
        assert_eq!(pri.messages, fifo.messages, "{tag}: policy changed message count");
        assert_eq!(pri.bytes, fifo.bytes, "{tag}: policy changed payload bytes");
    }
}

#[test]
fn level_set_and_sync_free_share_traffic() {
    // Scheduling policy changes *when* messages travel, never *which*.
    let (_, bm, tg) = setup(70, 9, 7);
    let owners = OwnerMap::block_cyclic(&bm, ProcessGrid::new(4));
    let tasks = pangulu_sim_tasks(&bm, &tg, &owners);
    let prof = PlatformProfile::a100_like();
    let sf = simulate(&tasks, 4, &prof, SimMode::SyncFree);
    let ls = simulate(&tasks, 4, &prof, SimMode::LevelSet);
    assert_eq!(sf.messages, ls.messages);
    assert_eq!(sf.bytes, ls.bytes);
}

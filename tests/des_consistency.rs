//! The discrete-event simulator must be a faithful model of the real
//! executor: same task DAG, same ownership, therefore **exactly** the
//! same message count and payload bytes. This pins the Figure 12/13
//! scalability methodology to the implementation it claims to model.

use pangulu::comm::{PlatformProfile, ProcessGrid};
use pangulu::core::des::{pangulu_sim_tasks, simulate, SimMode};
use pangulu::core::dist::{factor_distributed_checked, FactorConfig};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::ensure_diagonal;

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

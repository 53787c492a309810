//! Runtime verification of the synchronisation-free array (§4.4): trace
//! every kernel the distributed executor runs and check, on the wall
//! clock, that no kernel ever started before its dependencies finished —
//! across ranks, with no barriers anywhere.

use std::collections::HashMap;

use pangulu::comm::ProcessGrid;
use pangulu::core::dist::{factor_distributed_checked, FactorConfig, TraceEvent};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::{Task, TaskGraph};
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::sparse::gen;
use pangulu::sparse::ops::ensure_diagonal;

fn traced_run(p: usize, seed: u64) -> (TaskGraph, Vec<TraceEvent>) {
    let a = ensure_diagonal(&gen::random_sparse(70, 0.12, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let mut bm = BlockMatrix::from_filled(&f, 9).unwrap();
    let tg = TaskGraph::build(&bm);
    let owners = OwnerMap::balanced(&bm, ProcessGrid::new(p), &tg);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    let cfg = FactorConfig::default().traced();
    let run = factor_distributed_checked(&mut bm, &tg, &owners, &sel, 1e-12, &cfg).unwrap();
    (tg, run.trace)
}

#[test]
fn trace_covers_every_task_exactly_once() {
    let (tg, trace) = traced_run(4, 1);
    let mut getrf = 0usize;
    let mut panels = 0usize;
    let mut ssssm = 0usize;
    for e in &trace {
        match e.task {
            Task::Getrf { .. } => getrf += 1,
            Task::Gessm { .. } | Task::Tstrf { .. } => panels += 1,
            Task::Ssssm { .. } => ssssm += 1,
        }
        assert!(e.end >= e.start);
    }
    assert_eq!(getrf, tg.nblk);
    let expected_panels: usize = tg.l_panels.iter().map(|v| v.len()).sum::<usize>()
        + tg.u_panels.iter().map(|v| v.len()).sum::<usize>();
    assert_eq!(panels, expected_panels);
    assert_eq!(ssssm, tg.ssssm.len());
}

#[test]
fn no_kernel_starts_before_its_dependencies_finish() {
    for (p, seed) in [(2usize, 2u64), (4, 3), (6, 4)] {
        let (_, trace) = traced_run(p, seed);
        // End time of each task's output, keyed by what it produced.
        let mut diag_done: HashMap<usize, std::time::Duration> = HashMap::new();
        let mut l_done: HashMap<(usize, usize), std::time::Duration> = HashMap::new();
        let mut u_done: HashMap<(usize, usize), std::time::Duration> = HashMap::new();
        for e in &trace {
            match e.task {
                Task::Getrf { k } => {
                    diag_done.insert(k, e.end);
                }
                Task::Gessm { k, j } => {
                    u_done.insert((k, j), e.end);
                }
                Task::Tstrf { i, k } => {
                    l_done.insert((i, k), e.end);
                }
                Task::Ssssm { .. } => {}
            }
        }
        for e in &trace {
            match e.task {
                Task::Getrf { .. } => {}
                Task::Gessm { k, .. } | Task::Tstrf { k, .. } => {
                    let dep = diag_done[&k];
                    assert!(
                        dep <= e.start,
                        "p={p} seed={seed}: {:?} started {:?} before GETRF({k}) ended {:?}",
                        e.task,
                        e.start,
                        dep
                    );
                }
                Task::Ssssm { i, j, k } => {
                    let l = l_done[&(i, k)];
                    let u = u_done[&(k, j)];
                    assert!(
                        l <= e.start && u <= e.start,
                        "p={p} seed={seed}: SSSSM({i},{j},{k}) started before its panels"
                    );
                }
            }
        }
    }
}

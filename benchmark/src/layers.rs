//! Per-layer quantities that are read off a layer's public reports or
//! computed from the block structure, rather than timed as spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pangulu_comm::{BlockMsg, BlockRole, MailboxSet};
use pangulu_core::task::TaskGraph;
use pangulu_core::BlockMatrix;
use pangulu_metrics::CLASS_LABELS;
use pangulu_sparse::{CscMatrix, Scalar};

use crate::pipeline::NumericOut;

/// Per-class metric names, in `pangulu_metrics::CLASS_LABELS` order.
pub const KERNEL_CALLS: [&str; 4] =
    ["kernels.getrf.calls", "kernels.gessm.calls", "kernels.tstrf.calls", "kernels.ssssm.calls"];
pub const KERNEL_FLOPS: [&str; 4] =
    ["kernels.getrf.flops", "kernels.gessm.flops", "kernels.tstrf.flops", "kernels.ssssm.flops"];

/// Model FLOPs per kernel class and computed bytes touched by one
/// factorisation, both from the block structure alone (exact counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    pub flops: [f64; 4],
    /// Operand bytes read plus target bytes written, summed over kernel
    /// calls with every operand counted in full: cache misses and reuse
    /// are ignored, so this is a computed figure, not a measured one.
    pub bytes: f64,
}

fn block_bytes<S: Scalar>(b: &CscMatrix<S>) -> f64 {
    ((b.col_ptr().len() + b.row_idx().len()) * std::mem::size_of::<usize>()
        + b.values().len() * S::WIDTH) as f64
}

pub fn kernel_model<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph) -> KernelModel {
    let mut flops = [0.0f64; 4];
    let mut bytes = 0.0f64;
    let bytes_of = |bi: usize, bj: usize| {
        block_bytes(bm.block(bm.block_id(bi, bj).expect("task graph names stored blocks")))
    };
    for id in 0..bm.num_blocks() {
        let (bi, bj) = bm.block_coords(id);
        let k = bi.min(bj);
        let class = match bi.cmp(&bj) {
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Less => 1,    // U panel: GESSM
            std::cmp::Ordering::Greater => 2, // L panel: TSTRF
        };
        flops[class] += tg.panel_flops[id];
        // Target read and written; panel solves also read the diagonal.
        bytes += 2.0 * bytes_of(bi, bj) + if class == 0 { 0.0 } else { bytes_of(k, k) };
    }
    for (&(i, j, k), fl) in tg.ssssm.iter().zip(&tg.ssssm_flops) {
        flops[3] += fl;
        bytes += bytes_of(i, k) + bytes_of(k, j) + 2.0 * bytes_of(i, j);
    }
    KernelModel { flops, bytes }
}

/// What one numeric-executor call reported about its kernels and ranks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NumericSample {
    pub calls: [u64; 4],
    pub getrf_s: f64,
    /// GESSM + TSTRF: the sequential executor times them under one clock.
    pub trsm_s: f64,
    pub ssssm_s: f64,
    pub dist: Option<DistSample>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistSample {
    pub busy_frac: f64,
    pub sync_wait_frac: f64,
    pub blocked_recvs: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub max_queue_depth: u64,
}

impl NumericSample {
    pub fn of(out: &NumericOut) -> NumericSample {
        if let Some(ns) = &out.seq {
            return NumericSample {
                calls: ns.kernel_counts.map(|c| c as u64),
                getrf_s: ns.getrf_time.as_secs_f64(),
                trsm_s: ns.trsm_time.as_secs_f64(),
                ssssm_s: ns.ssssm_time.as_secs_f64(),
                dist: None,
            };
        }
        let Some(run) = &out.dist else {
            return NumericSample::default();
        };
        let tasks = run.report.total_tasks();
        let mut class_s = [0.0f64; 4];
        for (class, _variant, slot) in run.report.total_kernels().entries() {
            let c = CLASS_LABELS.iter().position(|l| *l == class).expect("known kernel class");
            class_s[c] += slot.nanos as f64 * 1e-9;
        }
        let ranks = run.stats.busy.len().max(1) as f64;
        let rank_seconds = run.stats.wall_time.as_secs_f64() * ranks;
        let frac = |parts: &[Duration]| {
            if rank_seconds > 0.0 {
                parts.iter().map(Duration::as_secs_f64).sum::<f64>() / rank_seconds
            } else {
                0.0
            }
        };
        NumericSample {
            calls: [tasks.getrf, tasks.gessm, tasks.tstrf, tasks.ssssm],
            getrf_s: class_s[0],
            trsm_s: class_s[1] + class_s[2],
            ssssm_s: class_s[3],
            dist: Some(DistSample {
                busy_frac: frac(&run.stats.busy),
                sync_wait_frac: frac(&run.stats.sync_wait),
                blocked_recvs: run.report.per_rank.iter().map(|r| r.blocked_recvs).sum(),
                msgs: run.report.total_messages(),
                bytes: run.report.total_bytes(),
                max_queue_depth: run
                    .report
                    .per_rank
                    .iter()
                    .map(|r| r.comm.max_queue_depth)
                    .max()
                    .unwrap_or(0),
            }),
        }
    }
}

/// Mean round trip, in microseconds, of a block message of `values` f64
/// entries bounced between two rank mailboxes on two threads (the
/// channel transport the distributed workload runs on).
pub fn mailbox_roundtrip_us(values: usize, rounds: u32) -> f64 {
    let timeout = Duration::from_secs(10);
    let mut boxes = MailboxSet::<f64>::new(2).into_mailboxes();
    let mut pong = boxes.pop().expect("two mailboxes");
    let mut ping = boxes.pop().expect("two mailboxes");
    let payload: Arc<[f64]> = vec![1.0; values].into();
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..rounds {
                let msg = pong.recv(timeout).expect("ping arrives");
                pong.send(0, msg);
            }
        });
        let start = Instant::now();
        for _ in 0..rounds {
            let msg = BlockMsg { bi: 0, bj: 0, role: BlockRole::LPanel, values: payload.clone() };
            ping.send(1, msg);
            std::hint::black_box(ping.recv(timeout).expect("pong arrives"));
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(rounds)
    })
}

/// Median stored-value count of the blocks of `bm` — the payload the
/// typical block message carries.
pub fn median_block_values<S: Scalar>(bm: &BlockMatrix<S>) -> usize {
    let mut sizes: Vec<usize> = (0..bm.num_blocks()).map(|id| bm.block(id).nnz()).collect();
    sizes.sort_unstable();
    sizes.get(sizes.len() / 2).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_symbolic::symbolic_fill;

    #[test]
    fn kernel_model_matches_the_task_graph_total() {
        let a = gen::laplacian_2d(12, 12);
        let fill = symbolic_fill(&a).unwrap();
        let bm = BlockMatrix::from_filled(&fill.filled_matrix(&a).unwrap(), 16).unwrap();
        let tg = TaskGraph::build(&bm);
        let m = kernel_model(&bm, &tg);
        assert_eq!(m.flops.iter().sum::<f64>(), tg.total_flops());
        assert!(m.flops.iter().all(|f| *f > 0.0));
        assert!(m.bytes > bm.memory_bytes() as f64, "every block is touched at least twice");
    }

    #[test]
    fn mailbox_roundtrip_is_a_positive_time() {
        assert!(mailbox_roundtrip_us(64, 50) > 0.0);
    }
}

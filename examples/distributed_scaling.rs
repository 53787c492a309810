//! Distributed execution and scalability projection.
//!
//! Factors one matrix on increasing (thread-simulated) rank counts under
//! the sync-free schedule, reporting the real message/sync statistics,
//! then projects the same task DAG to 1→128 ranks with the discrete-event
//! simulator under the A100-class platform profile — a miniature of the
//! paper's Figure 12 methodology.
//!
//! ```sh
//! cargo run --release --example distributed_scaling
//! ```

use pangulu::comm::{PlatformProfile, ProcessGrid};
use pangulu::core::des::{pangulu_sim_tasks, simulate, SimMode};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::prelude::*;
use pangulu::sparse::{gen, ops};

fn main() {
    let a = gen::kkt(1500, 700, 3);
    println!("kkt system: {} unknowns, {} nonzeros\n", a.nrows(), a.nnz());

    // Real multi-rank runs (threads as MPI ranks).
    println!("ranks   numeric    msgs   sync-wait   residual");
    for &ranks in &[1usize, 2, 4] {
        let solver = Solver::builder().ranks(ranks).build(&a).expect("factorisation");
        let b = gen::test_rhs(a.nrows(), 5);
        let x = solver.solve(&b).expect("solve");
        let resid = ops::relative_residual(&a, &x, &b).unwrap();
        let s = solver.stats();
        let (msgs, sync) = s
            .report
            .as_ref()
            .map(|r| (r.total_messages(), format!("{:.0}%", 100.0 * r.mean_sync_fraction())))
            .unwrap_or((0, "-".into()));
        println!("{ranks:>5}  {:>8.1?}  {msgs:>6}  {sync:>9}  {resid:.2e}", s.numeric_time);
    }

    // DES projection over the same task DAG (the Figure 12 machinery).
    println!("\nDES projection (A100-class profile), sync-free schedule:");
    println!("ranks   simulated-time   speedup   messages");
    let prep = {
        let r =
            pangulu::reorder::reorder_for_lu(&a, pangulu::reorder::FillReducing::NestedDissection)
                .unwrap();
        let fill = pangulu::symbolic::symbolic_fill(&r.matrix).unwrap();
        let filled = fill.filled_matrix(&r.matrix).unwrap();
        let nb = pangulu::core::BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), 16);
        pangulu::core::BlockMatrix::from_filled(&filled, nb).unwrap()
    };
    let tg = TaskGraph::build(&prep);
    let prof = PlatformProfile::a100_like();
    let mut t1 = 0.0;
    for &p in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
        let owners = OwnerMap::balanced(&prep, ProcessGrid::new(p), &tg);
        let tasks = pangulu_sim_tasks(&prep, &tg, &owners);
        let r = simulate(&tasks, p, &prof, SimMode::SyncFree);
        if p == 1 {
            t1 = r.makespan;
        }
        println!("{p:>5}   {:>12.3e}s   {:>6.2}x   {:>8}", r.makespan, t1 / r.makespan, r.messages);
    }
}

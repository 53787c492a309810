//! Quickstart: factor a sparse system and solve it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pangulu::prelude::*;
use pangulu::sparse::{gen, ops};

fn main() {
    // A 2-D Poisson problem on a 60x60 grid (the `apache2`/`ecology1`
    // structure class of the paper's suite).
    let a = gen::laplacian_2d(60, 60);
    let n = a.nrows();
    println!("matrix: {n} x {n}, {} nonzeros", a.nnz());

    // Factor with the full PanguLU pipeline (MC64 + nested dissection +
    // symmetric-pruned symbolic + blocked sync-free numeric) on 4
    // simulated ranks.
    let solver = Solver::builder().ranks(4).build(&a).expect("factorisation");

    let s = solver.stats();
    println!(
        "phases: reorder {:.1?}, symbolic {:.1?}, preprocess {:.1?}, numeric {:.1?}",
        s.reorder_time, s.symbolic_time, s.preprocess_time, s.numeric_time
    );
    let sym = s.symbolic.expect("symbolic stats");
    println!(
        "fill: nnz(L+U) = {} ({:.2}x of A), {:.2e} flops, tile size {}",
        sym.nnz_lu, sym.fill_ratio, sym.flops, s.block_size
    );
    if let Some(r) = &s.report {
        println!(
            "ranks: {} messages, {} KiB shipped, mean sync wait {:.0}%",
            r.total_messages(),
            r.total_bytes() / 1024,
            100.0 * r.mean_sync_fraction()
        );
    }

    // Solve two right-hand sides against the same factorisation.
    for seed in [1u64, 2] {
        let b = gen::test_rhs(n, seed);
        let x = solver.solve(&b).expect("solve");
        let resid = ops::relative_residual(&a, &x, &b).expect("residual");
        println!("rhs {seed}: relative residual {resid:.3e}");
        assert!(resid < 1e-10);
    }
    println!("ok");
}

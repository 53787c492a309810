//! Criterion benches of the triangular-solve phase (the paper's phase 5):
//! sequential forward/backward, the panel sweeps at 1, 8 and 32 lanes
//! (time per right-hand side) and transpose solves. `lap2d_256` is the
//! repo benchmark's `solve.lap2d.k32` input, whose factor (3.3 M entries)
//! is larger than cache — the case the panel sweeps exist for; the two
//! paper matrices fit in cache at scale 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pangulu_core::seq::factor_sequential;
use pangulu_core::trisolve::{
    backward_substitute, backward_substitute_panel, backward_substitute_transpose,
    forward_substitute, forward_substitute_panel, forward_substitute_transpose, PANEL_WIDTH,
};
use pangulu_kernels::select::{KernelSelector, Thresholds};

fn bench_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("solve");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));

    for name in ["ASIC_680k", "ecology1", "lap2d_256"] {
        let a = match name {
            "lap2d_256" => pangulu_sparse::gen::laplacian_2d(256, 256),
            paper => pangulu_sparse::gen::paper_matrix(paper, 1),
        };
        let prep = pangulu_bench::prepare(&a, 1).expect("prepare");
        let mut bm = prep.bm.clone();
        let sel = KernelSelector::new(a.nnz(), Thresholds::default());
        factor_sequential(&mut bm, &prep.tg, &sel, 1e-12);
        let b = pangulu_sparse::gen::test_rhs(a.nrows(), 1);

        g.throughput(Throughput::Elements(1));
        g.bench_function(BenchmarkId::new("sequential", name), |bch| {
            bch.iter(|| {
                let mut x = b.clone();
                forward_substitute(&bm, &mut x);
                backward_substitute(&bm, &mut x);
                x
            })
        });
        for k in [1, 8, PANEL_WIDTH] {
            // Row-major n × k panel, lane j = the right-hand side rotated by j.
            let n = b.len();
            let panel: Vec<f64> = (0..n * k).map(|at| b[(at / k + at % k) % n]).collect();
            g.throughput(Throughput::Elements(k as u64));
            g.bench_function(BenchmarkId::new(format!("panel/k={k}"), name), |bch| {
                bch.iter(|| {
                    let mut x = panel.clone();
                    forward_substitute_panel(&bm, &mut x, k);
                    backward_substitute_panel(&bm, &mut x, k);
                    x
                })
            });
        }
        g.throughput(Throughput::Elements(1));
        g.bench_function(BenchmarkId::new("transpose", name), |bch| {
            bch.iter(|| {
                let mut x = b.clone();
                forward_substitute_transpose(&bm, &mut x);
                backward_substitute_transpose(&bm, &mut x);
                x
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);

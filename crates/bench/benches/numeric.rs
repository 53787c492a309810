//! Criterion benches of the numeric factorisation (companion of Table 4):
//! PanguLU sequential with adaptive vs. baseline kernels, and the
//! supernodal dense baseline, on representative structure classes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pangulu_core::seq::factor_sequential;
use pangulu_kernels::select::{KernelSelector, Thresholds};
use pangulu_supernodal::{SupernodalLu, SupernodalOptions};

fn bench_numeric(c: &mut Criterion) {
    let mut g = c.benchmark_group("numeric");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for name in ["ASIC_680k", "ecology1"] {
        let a = pangulu_sparse::gen::paper_matrix(name, 1);
        let prep = pangulu_bench::prepare(&a, 1).expect("prepare");
        let adaptive = KernelSelector::new(a.nnz(), Thresholds::default());
        let baseline = KernelSelector::baseline(a.nnz());

        g.bench_function(BenchmarkId::new("pangulu_adaptive", name), |b| {
            b.iter(|| {
                let mut bm = prep.bm.clone();
                factor_sequential(&mut bm, &prep.tg, &adaptive, 1e-12)
            })
        });
        g.bench_function(BenchmarkId::new("pangulu_baseline_kernels", name), |b| {
            b.iter(|| {
                let mut bm = prep.bm.clone();
                factor_sequential(&mut bm, &prep.tg, &baseline, 1e-12)
            })
        });
        g.bench_function(BenchmarkId::new("supernodal_dense", name), |b| {
            b.iter(|| SupernodalLu::factor(&a, SupernodalOptions::default()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_numeric);
criterion_main!(benches);

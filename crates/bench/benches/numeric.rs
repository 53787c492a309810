//! Criterion benches of the numeric factorisation (companion of Table 4):
//! PanguLU's one-rank steady refactor with adaptive vs. baseline kernels,
//! and the supernodal dense baseline, on representative structure
//! classes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pangulu_core::seq::{empty_plans, factor_sequential_planned};
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
        // The baseline's closed planned gates leave its pool empty: it
        // runs the fixed kernels unplanned.
        for (label, sel) in [
            ("pangulu_adaptive", KernelSelector::new(a.nnz(), Thresholds::default())),
            ("pangulu_baseline_kernels", KernelSelector::baseline()),
        ] {
            // What `Solver::refactor` runs once its plans exist: the first
            // run on a pool builds no plan, the second builds them, and
            // every timed run replays them.
            let mut plans = empty_plans(&prep.bm, &prep.tg);
            for _ in 0..2 {
                let mut bm = prep.bm.clone();
                factor_sequential_planned(&mut bm, &prep.tg, &sel, 1e-12, &mut plans);
            }
            g.bench_function(BenchmarkId::new(label, name), |b| {
                b.iter(|| {
                    let mut bm = prep.bm.clone();
                    factor_sequential_planned(&mut bm, &prep.tg, &sel, 1e-12, &mut plans)
                })
            });
        }
        g.bench_function(BenchmarkId::new("supernodal_dense", name), |b| {
            b.iter(|| SupernodalLu::factor(&a, SupernodalOptions::default()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_numeric);
criterion_main!(benches);

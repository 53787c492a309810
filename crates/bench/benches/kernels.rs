//! Criterion benches of the Table 1 kernel variants on a representative
//! harvested block set (the statistical companion of Figure 7), and of
//! the dense-tile lane `D_V1` beside the sparse CPU variants on full
//! blocks (`ssssm/tile`, `gessm/tile`, `tstrf/tile`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pangulu_bench::kernel_timing::random_block;
use pangulu_core::block::BlockMatrix;
use pangulu_kernels::{getrf, ssssm, trsm, GetrfVariant, KernelScratch, SsssmVariant, TrsmVariant};
use pangulu_sparse::CscMatrix;

/// A mid-factorisation scenario: factored diagonal, solved panels and a
/// target block, cut from a real suite matrix.
struct Scenario {
    diag_raw: CscMatrix,
    diag_lu: CscMatrix,
    upper: CscMatrix,
    lower: CscMatrix,
    l_op: CscMatrix,
    u_op: CscMatrix,
    target: CscMatrix,
}

fn scenario() -> Scenario {
    let a = pangulu_sparse::gen::paper_matrix("ASIC_680k", 1);
    let prep_a =
        pangulu_reorder::reorder_for_lu(&a, pangulu_reorder::FillReducing::NestedDissection)
            .unwrap();
    let fill = pangulu_symbolic::symbolic_fill(&prep_a.matrix).unwrap();
    let filled = fill.filled_matrix(&prep_a.matrix).unwrap();
    let nb = BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), 1);
    let bm = BlockMatrix::from_filled(&filled, nb).unwrap();
    let tg = pangulu_core::task::TaskGraph::build(&bm);

    // Find a step with both panel kinds and a Schur target.
    let mut scratch = KernelScratch::with_capacity(bm.nb());
    let k = (0..bm.nblk())
        .find(|&k| !tg.l_panels[k].is_empty() && !tg.u_panels[k].is_empty())
        .expect("a step with panels");
    let diag_raw = bm.block(bm.block_id(k, k).unwrap()).clone();
    let mut diag_lu = diag_raw.clone();
    getrf::getrf(&mut diag_lu, GetrfVariant::CV1, &mut scratch, 1e-12);
    let j = tg.u_panels[k][0];
    let i = tg.l_panels[k][0];
    let upper = bm.block(bm.block_id(k, j).unwrap()).clone();
    let lower = bm.block(bm.block_id(i, k).unwrap()).clone();
    let mut l_op = lower.clone();
    trsm::tstrf(&diag_lu, &mut l_op, TrsmVariant::CV1, &mut scratch);
    let mut u_op = upper.clone();
    trsm::gessm(&diag_lu, &mut u_op, TrsmVariant::CV1, &mut scratch);
    let target =
        bm.block_id(i, j).map(|id| bm.block(id).clone()).unwrap_or_else(|| diag_raw.clone());
    Scenario { diag_raw, diag_lu, upper, lower, l_op, u_op, target }
}

fn bench_kernels(c: &mut Criterion) {
    let s = scenario();
    let nb = s.diag_raw.nrows();
    let mut scratch = KernelScratch::with_capacity(nb.max(s.upper.nrows()).max(s.lower.ncols()));

    let mut g = c.benchmark_group("getrf");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (v, label) in
        [(GetrfVariant::CV1, "C_V1"), (GetrfVariant::GV1, "G_V1"), (GetrfVariant::GV2, "G_V2")]
    {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut blk = s.diag_raw.clone();
                getrf::getrf(&mut blk, v, &mut scratch, 1e-12)
            })
        });
    }
    g.finish();

    let trsm_variants = [
        (TrsmVariant::CV1, "C_V1"),
        (TrsmVariant::CV2, "C_V2"),
        (TrsmVariant::GV1, "G_V1"),
        (TrsmVariant::GV2, "G_V2"),
        (TrsmVariant::GV3, "G_V3"),
    ];
    let mut g = c.benchmark_group("gessm");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (v, label) in trsm_variants {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut blk = s.upper.clone();
                trsm::gessm(&s.diag_lu, &mut blk, v, &mut scratch)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("tstrf");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (v, label) in trsm_variants {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut blk = s.lower.clone();
                trsm::tstrf(&s.diag_lu, &mut blk, v, &mut scratch)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("ssssm");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (v, label) in [
        (SsssmVariant::CV1, "C_V1"),
        (SsssmVariant::CV2, "C_V2"),
        (SsssmVariant::GV1, "G_V1"),
        (SsssmVariant::GV2, "G_V2"),
    ] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut c = s.target.clone();
                ssssm::ssssm(&s.l_op, &s.u_op, &mut c, v, &mut scratch)
            })
        });
    }
    g.finish();
}

/// A benchmark group with this file's sampling settings.
fn group<'a>(c: &'a mut Criterion, name: &str) -> criterion::BenchmarkGroup<'a> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g
}

/// The dense-tile lane against the sparse CPU variants on completely
/// filled blocks, at a small block size and at the kkt workloads' 119.
fn bench_tile(c: &mut Criterion) {
    let trsm_variants =
        [(TrsmVariant::CV1, "C_V1"), (TrsmVariant::CV2, "C_V2"), (TrsmVariant::DV1, "D_V1")];
    let ssssm_variants =
        [(SsssmVariant::CV1, "C_V1"), (SsssmVariant::CV2, "C_V2"), (SsssmVariant::DV1, "D_V1")];
    let mut scratch = KernelScratch::default();
    for nb in [32usize, 119] {
        let mut diag_lu = random_block(nb, nb, 1.0, 1);
        getrf::getrf(&mut diag_lu, GetrfVariant::CV1, &mut scratch, 1e-12);
        let panel = random_block(nb, nb, 1.0, 2);
        let (a, b) = (random_block(nb, nb, 1.0, 3), random_block(nb, nb, 1.0, 4));

        let mut g = group(c, "ssssm/tile");
        for (v, label) in ssssm_variants {
            g.bench_function(BenchmarkId::new(label, nb), |bch| {
                bch.iter(|| {
                    let mut c = panel.clone();
                    ssssm::ssssm(&a, &b, &mut c, v, &mut scratch)
                })
            });
        }
        g.finish();
        let mut g = group(c, "gessm/tile");
        for (v, label) in trsm_variants {
            g.bench_function(BenchmarkId::new(label, nb), |bch| {
                bch.iter(|| {
                    let mut blk = panel.clone();
                    trsm::gessm(&diag_lu, &mut blk, v, &mut scratch)
                })
            });
        }
        g.finish();
        let mut g = group(c, "tstrf/tile");
        for (v, label) in trsm_variants {
            g.bench_function(BenchmarkId::new(label, nb), |bch| {
                bch.iter(|| {
                    let mut blk = panel.clone();
                    trsm::tstrf(&diag_lu, &mut blk, v, &mut scratch)
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_kernels, bench_tile);
criterion_main!(benches);

//! Cross-solver equivalence: PanguLU and the supernodal baseline factor
//! the same systems and must agree on the solutions; the block size must
//! not change results. (That kernel selection cannot change a factor is
//! checked bit for bit per kernel in `pangulu-kernels`'
//! `kernel_properties.rs`.)

use pangulu::core::BlockMatrix;
use pangulu::prelude::*;
use pangulu::reorder::FillReducing;
use pangulu::sparse::gen;
use pangulu::sparse::ops::relative_residual;
use pangulu::sparse::permute::{permute, scale};
use pangulu::sparse::{CooMatrix, CscMatrix};
use pangulu::supernodal::{SupernodalLu, SupernodalOptions};

fn agree(name: &str, a: &pangulu::sparse::CscMatrix, tol: f64) {
    let b = gen::test_rhs(a.nrows(), 11);
    let p = Solver::factor(a).unwrap();
    let s = SupernodalLu::factor(a, SupernodalOptions::default()).unwrap();
    let xp = p.solve(&b).unwrap();
    let xs = s.solve(&b).unwrap();
    let scale = xp.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
    for (i, (u, v)) in xp.iter().zip(&xs).enumerate() {
        assert!((u - v).abs() / scale < tol, "{name}: solvers disagree at {i}: {u} vs {v}");
    }
    // Both must actually solve the system.
    assert!(relative_residual(a, &xp, &b).unwrap() < tol);
    assert!(relative_residual(a, &xs, &b).unwrap() < tol);
}

#[test]
fn pangulu_agrees_with_supernodal_baseline() {
    agree("laplacian", &gen::laplacian_2d(15, 14), 1e-9);
    agree("circuit", &gen::circuit(300, 21), 1e-8);
    agree("fem", &gen::fem_blocked(50, 5, 2, 13), 1e-8);
    agree("kkt", &gen::kkt(200, 90, 7), 1e-8);
}

/// The golden corpus: one matrix per structure class, each with a
/// *recorded* residual bound — the worst residual either solver produced
/// at recording time, times a 100x safety margin. A failure here means a
/// genuine accuracy regression, not test noise: the observed residuals
/// sit near 1e-16, ten orders under the loosest bound.
/// `tests/golden_counts.rs` pins the work counters of the same corpus (at
/// larger sizes); see docs/OBSERVABILITY.md.
const GOLDEN_BOUNDS: [(&str, f64); 6] = [
    ("laplacian_2d", 1e-13),
    ("circuit", 1e-12),
    ("fem_blocked", 1e-13),
    ("kkt", 1e-12),
    ("cage_like", 1e-13),
    ("dense_banded", 1e-13),
];

fn golden_matrix(name: &str) -> pangulu::sparse::CscMatrix {
    match name {
        "laplacian_2d" => gen::laplacian_2d(15, 14),
        "circuit" => gen::circuit(300, 21),
        "fem_blocked" => gen::fem_blocked(50, 5, 2, 13),
        "kkt" => gen::kkt(200, 90, 7),
        "cage_like" => gen::cage_like(250, 17),
        "dense_banded" => gen::dense_banded(200, 12, 0.5, 9),
        other => panic!("unknown golden matrix {other}"),
    }
}

/// Both solvers beat every recorded bound on the full six-matrix corpus,
/// their solutions agree, and the multi-rank PanguLU path (2x2 grid)
/// matches the single-rank one.
#[test]
fn golden_corpus_residuals_stay_within_recorded_bounds() {
    for (name, bound) in GOLDEN_BOUNDS {
        let a = golden_matrix(name);
        let b = gen::test_rhs(a.nrows(), 11);

        let p1 = Solver::factor(&a).unwrap();
        let p4 = Solver::builder().ranks(4).build(&a).unwrap();
        let s = SupernodalLu::factor(&a, SupernodalOptions::default()).unwrap();
        let x1 = p1.solve(&b).unwrap();
        let x4 = p4.solve(&b).unwrap();
        let xs = s.solve(&b).unwrap();

        let r1 = relative_residual(&a, &x1, &b).unwrap();
        let r4 = relative_residual(&a, &x4, &b).unwrap();
        let rs = relative_residual(&a, &xs, &b).unwrap();
        assert!(r1 < bound, "{name}: pangulu 1-rank residual {r1:.3e} over bound {bound:.0e}");
        assert!(r4 < bound, "{name}: pangulu 4-rank residual {r4:.3e} over bound {bound:.0e}");
        assert!(rs < bound, "{name}: supernodal residual {rs:.3e} over bound {bound:.0e}");

        let scale = x1.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        for (i, ((u, v), w)) in x1.iter().zip(&x4).zip(&xs).enumerate() {
            assert!(
                (u - v).abs() / scale < 1e-9,
                "{name}: 1-rank vs 4-rank disagree at {i}: {u} vs {v}"
            );
            assert!(
                (u - w).abs() / scale < 1e-8,
                "{name}: pangulu vs supernodal disagree at {i}: {u} vs {w}"
            );
        }
    }
}

/// Mixed precision on the golden corpus: the f32-factor /
/// refined-solve path must meet the SAME recorded f64 bounds on every
/// matrix — iterative refinement recovers full f64 accuracy — with a
/// bounded, deterministic number of refinement iterations, no
/// fallbacks, and f32 factors bitwise identical between the 1-rank and
/// 4-rank grids.
#[test]
fn golden_corpus_mixed_precision_meets_f64_bounds() {
    // Recorded per-matrix refinement iteration counts (all 2 at
    // recording time; bound 8 leaves margin without letting the loop
    // degenerate). Deterministic: refinement always runs sequentially.
    const MAX_REFINE: u64 = 8;
    for (name, bound) in GOLDEN_BOUNDS {
        let a = golden_matrix(name);
        let b = gen::test_rhs(a.nrows(), 11);

        let m1 = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let m4 = Solver::builder().precision(Precision::MixedF32).ranks(4).build(&a).unwrap();
        assert_eq!(m1.effective_precision(), Precision::MixedF32, "{name}: 1-rank fell back");
        assert_eq!(m4.effective_precision(), Precision::MixedF32, "{name}: 4-rank fell back");

        let x1 = m1.solve(&b).unwrap();
        let x4 = m4.solve(&b).unwrap();
        let r1 = relative_residual(&a, &x1, &b).unwrap();
        let r4 = relative_residual(&a, &x4, &b).unwrap();
        assert!(r1 < bound, "{name}: mixed 1-rank residual {r1:.3e} over f64 bound {bound:.0e}");
        assert!(r4 < bound, "{name}: mixed 4-rank residual {r4:.3e} over f64 bound {bound:.0e}");

        for (tag, s) in [("1-rank", &m1), ("4-rank", &m4)] {
            let c = s.precision_counters();
            assert_eq!(c.precision_fallbacks, 0, "{name} {tag}");
            assert_eq!(c.refined_solves, 1, "{name} {tag}");
            assert!(
                c.refine_iters >= 1 && c.refine_iters <= MAX_REFINE,
                "{name} {tag}: {} refinement iterations out of bounds",
                c.refine_iters
            );
        }
        // Same grid-independence contract as the f64 factors, but on
        // the raw f32 bits.
        let f1 = m1.factored32().unwrap();
        let f4 = m4.factored32().unwrap();
        for id in 0..f1.num_blocks() {
            assert_eq!(
                f1.block(id).values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                f4.block(id).values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{name}: f32 factors differ between grids in block {id}"
            );
        }
    }
}

/// No factor entry of the golden corpus is `-0.0`, in either width.
/// The dense-tile lane is bitwise equal to the sparse updates only while
/// no update target holds
/// `-0.0` (subtracting a `(±0)·x` product would flip it to `+0.0`);
/// docs/ALGORITHM.md §4 argues why a target never does — this pins the
/// stronger observable fact on the corpus, zero-valued fill included.
#[test]
fn golden_corpus_factors_hold_no_negative_zero() {
    for (name, _) in GOLDEN_BOUNDS {
        let a = golden_matrix(name);
        let wide = Solver::factor(&a).unwrap();
        let mixed = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let (f64s, f32s) = (wide.factored(), mixed.factored32().expect("mixed keeps f32 factors"));
        for id in 0..f64s.num_blocks() {
            let neg64 = f64s.block(id).values().iter().filter(|v| v.to_bits() == 1 << 63).count();
            let neg32 = f32s.block(id).values().iter().filter(|v| v.to_bits() == 1 << 31).count();
            assert_eq!((neg64, neg32), (0, 0), "{name}: block {id} stores -0.0");
        }
    }
}

/// A dense 80 × 80 system cut at 40 (four full blocks, all past the
/// planned gates) with `zero` (`-0.0` or `+0.0`) at two entries: update
/// target `(43, 40)` of the trailing block, which receives nothing but
/// zero products (row 43 of the `L` block and column 40 of the `U` block
/// are explicit zeros, and half the leading block's pivots are negative,
/// so `L(43, k)` holds `-0.0` where they are), and `(0, 45)`, the first
/// row of a `U` panel, which no kernel writes.
fn signed_zero_system(zero: f64) -> CscMatrix {
    let (n, nb, row, col) = (80, 40, 43, 40);
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        for i in 0..n {
            let v = if i == j {
                let d = 100.0 + i as f64;
                if i < nb && i % 2 == 0 {
                    -d
                } else {
                    d
                }
            } else if (i, j) == (row, col) || (i, j) == (0, 45) {
                zero
            } else if (i == row && j < nb) || (j == col && i < nb) {
                0.0
            } else {
                0.25 + ((i * 31 + j * 17) % 23) as f64 / 16.0
            };
            coo.push(i, j, v).unwrap();
        }
    }
    coo.to_csc()
}

/// The solver's factors of `a` (natural order, cut at 40) after the
/// build and after a refactor, and its reordering's scaled, permuted
/// copy of `a`.
fn solver_factors(a: &CscMatrix) -> (Vec<u64>, Vec<u64>, CscMatrix) {
    let mut solver =
        Solver::builder().block_size(40).fill_reducing(FillReducing::Natural).build(a).unwrap();
    let built = value_bits(solver.factored());
    solver.refactor(a).unwrap();
    let r = solver.ordering();
    let permuted =
        permute(&scale(a, &r.row_scale, &r.col_scale).unwrap(), &r.row_perm, &r.col_perm).unwrap();
    (built, value_bits(solver.factored()), permuted)
}

/// `a` factored by the unplanned sparse sweep under the Figure 14
/// baseline selector, and by a planned sweep's second run under the
/// default one (the dense-tile lane on every full block).
fn baseline_and_lane(a: &CscMatrix) -> (Vec<u64>, Vec<u64>) {
    use pangulu::core::seq::{empty_plans, factor_sequential, factor_sequential_planned};
    use pangulu::core::task::TaskGraph;
    use pangulu::kernels::select::{KernelSelector, Thresholds};
    use pangulu::kernels::{Route, SsssmVariant, TrsmVariant};
    let f = pangulu::symbolic::symbolic_fill(a).unwrap().filled_matrix(a).unwrap();
    let bm0 = BlockMatrix::from_filled(&f, 40).unwrap();
    let tg = TaskGraph::build(&bm0);
    let floor = 1e-12 * a.norm_max().max(1.0);
    let mut base = bm0.clone();
    factor_sequential(&mut base, &tg, &KernelSelector::baseline(), floor);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    let mut plans = empty_plans(&bm0, &tg);
    let mut lane = bm0.clone();
    for _ in 0..2 {
        lane = bm0.clone();
        factor_sequential_planned(&mut lane, &tg, &sel, floor, &mut plans);
    }
    let (u, l) = (bm0.block_id(0, 1).unwrap(), bm0.block_id(1, 0).unwrap());
    let diag = bm0.block(bm0.block_id(0, 0).unwrap());
    let routes = [
        plans.route_gessm(&sel, u, tg.panel_flops[u], diag, bm0.block(u)),
        plans.route_tstrf(&sel, l, tg.panel_flops[l], diag, bm0.block(l)),
    ];
    assert!(
        routes.iter().all(|r| matches!(r, Route::Variant(TrsmVariant::DV1))),
        "panel off the lane"
    );
    let target = bm0.block(bm0.block_id(1, 1).unwrap());
    let update = plans.route_ssssm(&sel, 0, tg.ssssm_flops[0], bm0.block(l), target);
    assert!(matches!(update, Route::Variant(SsssmVariant::DV1)), "update off the lane");
    (value_bits(&base), value_bits(&lane))
}

/// An explicit `-0.0` input in a full off-diagonal block: handed to the
/// kernels as is, the lane and the baseline part on its sign — so the
/// solver writes a zero input as `+0.0`, at the build's load and in the
/// refactor's scatter, and its factors are the baseline's bits on the
/// load it makes, build and refactor alike.
#[test]
fn negative_zero_input_factors_as_the_baseline_selector_does() {
    let a = signed_zero_system(-0.0);
    let (built, refactored, permuted) = solver_factors(&a);
    // The kernels part on a `-0.0` target ...
    let (base, lane) = baseline_and_lane(&permuted);
    assert_ne!(base, lane, "the fixture no longer reaches a -0.0 target through the lane");
    // ... and agree on the load the solver makes, `+0.0` for every zero.
    let mut loaded = permuted.clone();
    loaded.values_mut().iter_mut().for_each(|v| *v += 0.0);
    let (base, lane) = baseline_and_lane(&loaded);
    assert_eq!(base, lane, "lane != baseline on +0.0 inputs");
    assert_eq!(built, base, "the solver's build != the baseline");
    assert_eq!(refactored, base, "the solver's refactor != the baseline");
    // The same system with a `+0.0` input factors to the same bits.
    assert_eq!(solver_factors(&signed_zero_system(0.0)).0, built, "-0.0 and +0.0 inputs differ");
}

/// Raw bits of every stored factor value, block by block.
fn value_bits<S: pangulu::sparse::Scalar>(bm: &BlockMatrix<S>) -> Vec<u64> {
    (0..bm.num_blocks())
        .flat_map(|id| bm.block(id).values().iter().map(|v| v.to_f64().to_bits()))
        .collect()
}

#[test]
fn block_size_does_not_change_solution() {
    let a = gen::cage_like(250, 17);
    let b = gen::test_rhs(a.nrows(), 5);
    let mut reference: Option<Vec<f64>> = None;
    for nb in [8usize, 21, 64, 250] {
        let solver = Solver::builder().block_size(nb).build(&a).unwrap();
        let x = solver.solve(&b).unwrap();
        match &reference {
            None => reference = Some(x),
            Some(r) => {
                for (p, q) in x.iter().zip(r) {
                    assert!((p - q).abs() < 1e-9, "nb={nb} changed the solution");
                }
            }
        }
    }
}

#[test]
fn supernodal_padding_exceeds_sparse_storage() {
    // Table 3's structural claim on every structure class.
    for a in [gen::laplacian_2d(16, 16), gen::circuit(300, 5), gen::fem_blocked(40, 5, 2, 3)] {
        let p = Solver::factor(&a).unwrap();
        let s = SupernodalLu::factor(&a, SupernodalOptions::default()).unwrap();
        assert!(
            s.stats().padded_nnz_lu >= p.stats().symbolic.unwrap().nnz_lu,
            "dense supernodal storage must dominate the sparse layout"
        );
    }
}

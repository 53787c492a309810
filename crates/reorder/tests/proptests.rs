//! Property tests of the reordering substrate.
//!
//! Five families of invariants the rest of the pipeline leans on:
//!
//! * every ordering (AMD, RCM, nested dissection, natural, auto) returns
//!   a **bijective** permutation — a repeated or skipped index would
//!   silently drop rows during the symbolic phase;
//! * symmetric *patterns* stay symmetric under the symmetric orderings,
//!   which `BlockMatrix` assumes when it mirrors block structure;
//! * AMD and nested dissection come back **postordered** along the
//!   elimination tree of the pattern they reorder — children before
//!   parents, every subtree one contiguous index range — at exactly the
//!   fill of the raw pivot sequence, which is what keeps the regular block
//!   grid from being sprayed with tiny blocks;
//! * graphs with planted **hubs** (lists longer than √nnz, which AMD sets
//!   aside before its first pivot) are still ordered bijectively and
//!   deterministically, hubs last;
//! * MC64 matching/scaling leaves the diagonal structurally present and
//!   numerically nonzero (matched entries scale to 1, everything else to
//!   at most 1) — the property static pivoting relies on.

use proptest::prelude::*;

use pangulu_reorder::{amd, fill_reducing_ordering, mc64, nd, rcm, reorder_for_lu, FillReducing};
use pangulu_sparse::ops::symmetrize;
use pangulu_sparse::permute::{permute, permute_symmetric, scale};
use pangulu_sparse::{CooMatrix, CscMatrix, Permutation};
use pangulu_symbolic::counts::nnz_lu_within;
use pangulu_symbolic::etree::{EliminationTree, NO_PARENT};

const ORDERINGS: [FillReducing; 5] = [
    FillReducing::Natural,
    FillReducing::Amd,
    FillReducing::Rcm,
    FillReducing::NestedDissection,
    FillReducing::Auto,
];

/// Strategy: a random square matrix as (n, entry list); indices are
/// reduced modulo n on construction.
fn matrix_inputs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..24).prop_flat_map(|n| {
        (Just(n), proptest::collection::vec((0usize..64, 0usize..64, -5.0f64..5.0), 0..120))
    })
}

/// Random off-diagonal pattern plus an explicit nonzero diagonal, so a
/// numerically nonsingular transversal always exists for MC64.
fn build(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(i, j, v) in entries {
        coo.push(i % n, j % n, v).unwrap();
    }
    for i in 0..n {
        coo.push(i, i, 1.0 + 0.25 * (i % 7) as f64).unwrap();
    }
    coo.to_csc()
}

/// A permutation is bijective iff every index in 0..n appears exactly once.
fn assert_bijection(p: &Permutation, n: usize, ctx: &str) {
    prop_assert_eq!(p.len(), n, "{}: permutation length {} != n {}", ctx, p.len(), n);
    let mut seen = vec![false; n];
    for &old in p.as_slice() {
        prop_assert!(old < n, "{}: out-of-range image {}", ctx, old);
        prop_assert!(!seen[old], "{}: index {} mapped twice", ctx, old);
        seen[old] = true;
    }
    // Composing with the inverse must give the identity.
    let id = p.inverse().compose(p);
    prop_assert_eq!(id.as_slice(), Permutation::identity(n).as_slice(), "{}: inverse", ctx);
}

fn assert_pattern_symmetric(m: &CscMatrix, ctx: &str) {
    for j in 0..m.ncols() {
        let (rows, _) = m.col(j);
        for &i in rows {
            let (back, _) = m.col(i);
            prop_assert!(
                back.binary_search(&j).is_ok(),
                "{}: ({},{}) present but ({},{}) missing",
                ctx,
                i,
                j,
                j,
                i
            );
        }
    }
}

/// The postorder contract of [`fill_reducing_ordering`] on one symmetric
/// pattern: AMD and ND are bijections with exactly the fill of their raw
/// pivot sequence, every parent follows its children, every subtree is
/// one contiguous index range (vertex `j`'s is `[j + 1 - size, j]`),
/// postordering again is the identity, the result is deterministic, and
/// natural / RCM come back as their own functions return them.
fn assert_equal_fill_postorders(sym: &CscMatrix) {
    let n = sym.ncols();
    let fill =
        |p: &Permutation| nnz_lu_within(sym.col_ptr(), sym.row_idx(), p, usize::MAX).unwrap();
    let raws = [
        (FillReducing::Amd, amd::amd_order(sym).unwrap()),
        (FillReducing::NestedDissection, nd::nested_dissection(sym).unwrap()),
    ];
    for (method, raw) in raws {
        let perm = fill_reducing_ordering(sym, method).unwrap();
        assert_bijection(&perm, n, &format!("{method:?}"));
        prop_assert_eq!(fill(&perm), fill(&raw), "{:?}: postorder changed the fill", method);
        prop_assert_eq!(&perm, &fill_reducing_ordering(sym, method).unwrap(), "deterministic");

        let tree =
            EliminationTree::from_permuted_pattern(sym.col_ptr(), sym.row_idx(), &perm).unwrap();
        let (mut size, mut first) = (vec![1usize; n], (0..n).collect::<Vec<_>>());
        for j in 0..n {
            prop_assert_eq!(j + 1 - first[j], size[j], "{:?}: subtree of {} has a gap", method, j);
            let p = tree.parent(j);
            if p != NO_PARENT {
                prop_assert!(p > j, "{:?}: parent {} before child {}", method, p, j);
                size[p] += size[j];
                first[p] = first[p].min(first[j]);
            }
        }
        prop_assert_eq!(tree.postorder(), (0..n).collect::<Vec<_>>(), "{:?}: idempotent", method);
    }
    prop_assert_eq!(
        fill_reducing_ordering(sym, FillReducing::Natural).unwrap(),
        Permutation::identity(n)
    );
    prop_assert_eq!(
        fill_reducing_ordering(sym, FillReducing::Rcm).unwrap(),
        rcm::rcm_order(sym).unwrap()
    );
}

/// The same contract on the generator classes the benchmark and the
/// golden-counts corpus draw from.
#[test]
fn generator_patterns_are_equal_fill_postorders() {
    use pangulu_sparse::gen;
    for a in [
        gen::circuit(700, 2),
        gen::kkt(200, 90, 3),
        gen::laplacian_2d(23, 17),
        gen::dense_banded(250, 9, 0.6, 4),
    ] {
        assert_equal_fill_postorders(&symmetrize(&a).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every fill-reducing ordering of a symmetrised pattern is a
    /// bijection on 0..n.
    #[test]
    fn fill_orderings_are_bijections((n, entries) in matrix_inputs()) {
        let a = build(n, &entries);
        let sym = symmetrize(&a).unwrap();
        for method in ORDERINGS {
            let p = fill_reducing_ordering(&sym, method)
                .unwrap_or_else(|e| panic!("{method:?}: {e}"));
            assert_bijection(&p, n, &format!("{method:?}"));
        }
    }

    /// Symmetric patterns stay symmetric under the symmetric orderings.
    #[test]
    fn symmetric_patterns_stay_symmetric((n, entries) in matrix_inputs()) {
        let a = build(n, &entries);
        let sym = symmetrize(&a).unwrap();
        assert_pattern_symmetric(&sym, "symmetrize");
        for method in ORDERINGS {
            let p = fill_reducing_ordering(&sym, method).unwrap();
            let permuted = permute_symmetric(&sym, &p).unwrap();
            prop_assert_eq!(permuted.nnz(), sym.nnz(), "{:?}: nnz changed", method);
            assert_pattern_symmetric(&permuted, &format!("{method:?}"));
        }
    }

    /// AMD and ND are postorders of the elimination tree of the pattern
    /// they reorder, with the fill of the raw pivot sequence; postordering
    /// again changes nothing; natural and RCM are untouched.
    #[test]
    fn amd_and_nd_are_equal_fill_postorders((n, entries) in matrix_inputs()) {
        assert_equal_fill_postorders(&symmetrize(&build(n, &entries)).unwrap());
    }

    /// Planted hubs — up to three vertices adjacent to at least two thirds
    /// of the graph, so each list outgrows √nnz — are set aside, and every
    /// ordering that runs the minimum-degree core stays a deterministic
    /// bijection with the hubs (and only them) at the end of the raw order.
    #[test]
    fn planted_hubs_are_set_aside_and_orders_stay_bijective(
        (n, entries, hubs) in (60usize..200).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0usize..256, 0usize..256, -5.0f64..5.0), 0..120),
            proptest::collection::vec((0usize..256, 2 * n / 3..n), 1..4),
        ))
    ) {
        let mut entries = entries;
        for &(hub, degree) in &hubs {
            entries.extend((1..=degree).flat_map(|k| [(hub, hub + k, 1.0), (hub + k, hub, 1.0)]));
        }
        let sym = symmetrize(&build(n, &entries)).unwrap();
        let raw = amd::amd_order(&sym).unwrap();
        assert_bijection(&raw, n, "raw amd");
        prop_assert_eq!(&raw, &amd::amd_order(&sym).unwrap(), "raw amd: deterministic");
        let degree = |v: usize| sym.col(v).0.len() - 1;
        let is_hub = |v: usize| degree(v) > 16 && degree(v).pow(2) > sym.nnz() - n;
        let planted = (0..n).filter(|&v| is_hub(v)).count();
        prop_assert!(planted >= 1, "the fixture planted no hub");
        for (new, &old) in raw.as_slice().iter().enumerate() {
            prop_assert_eq!(is_hub(old), new >= n - planted, "vertex {} at {}", old, new);
        }
        let tail = &raw.as_slice()[n - planted..];
        prop_assert!(tail.windows(2).all(|w| degree(w[0]) <= degree(w[1])), "lightest first");
        for method in [FillReducing::Amd, FillReducing::NestedDissection, FillReducing::Auto] {
            let p = fill_reducing_ordering(&sym, method).unwrap();
            assert_bijection(&p, n, &format!("{method:?} with hubs"));
            prop_assert_eq!(&p, &fill_reducing_ordering(&sym, method).unwrap());
        }
        // The pipeline's matching may move rows, never a hub's column.
        prop_assert!(reorder_for_lu(&sym, FillReducing::Amd).unwrap().deferred >= 1);
    }

    /// MC64 produces a bijective row permutation, and under its scaling
    /// the matched (diagonal) entries are 1 with everything else at most
    /// 1 in magnitude — so the diagonal is structurally present and
    /// numerically nonzero, the static-pivoting precondition.
    #[test]
    fn mc64_scaling_leaves_nonzero_unit_diagonal((n, entries) in matrix_inputs()) {
        let a = build(n, &entries);
        let m = mc64::mc64(&a).unwrap();
        assert_bijection(&m.row_perm, n, "mc64 row_perm");
        let scaled = scale(&a, &m.row_scale, &m.col_scale).unwrap();
        let matched = permute(&scaled, &m.row_perm, &Permutation::identity(n)).unwrap();
        for j in 0..n {
            let d = matched.get(j, j);
            prop_assert!(d.abs() > 0.0, "column {} has a zero diagonal after matching", j);
            prop_assert!(
                (d.abs() - 1.0).abs() < 1e-6,
                "column {}: matched entry {} not scaled to 1",
                j,
                d
            );
        }
        for &v in matched.values() {
            prop_assert!(v.abs() <= 1.0 + 1e-6, "scaled entry {} exceeds 1", v);
        }
    }

    /// The full pipeline composes those pieces: both output permutations
    /// are bijections and the reordered matrix keeps a nonzero diagonal.
    #[test]
    fn reorder_for_lu_is_bijective_with_nonzero_diagonal((n, entries) in matrix_inputs()) {
        let a = build(n, &entries);
        for method in [FillReducing::Amd, FillReducing::NestedDissection] {
            let r = reorder_for_lu(&a, method).unwrap();
            assert_bijection(&r.row_perm, n, "row_perm");
            assert_bijection(&r.col_perm, n, "col_perm");
            for j in 0..n {
                prop_assert!(
                    r.matrix.get(j, j).abs() > 0.0,
                    "{:?}: reordered matrix lost diagonal {}",
                    method,
                    j
                );
            }
        }
    }
}

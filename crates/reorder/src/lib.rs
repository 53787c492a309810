//! Reordering substrate for the PanguLU reproduction.
//!
//! PanguLU's reordering phase (paper §4.1) uses **MC64** to permute large
//! entries onto the diagonal (numerical stability under static pivoting)
//! and **METIS** to reduce fill. Neither library exists here, so this crate
//! implements the same algorithm families from scratch:
//!
//! * [`mc64`] — maximum-product bipartite transversal with dual-variable
//!   row/column scaling (Duff–Koster algorithm family);
//! * [`amd`] — approximate minimum degree on a compact quotient graph
//!   (near-linear in the number of nonzeros);
//! * [`nd`] — nested dissection via BFS level-structure separators
//!   (the METIS stand-in), leaves and separators ordered by the same
//!   minimum-degree core;
//! * [`rcm`] — reverse Cuthill–McKee, useful for banded problems and as a
//!   cross-check in tests.
//!
//! The top-level [`reorder_for_lu`] runs the full PanguLU pipeline:
//! MC64 row permutation + scaling, then a symmetric fill-reducing
//! permutation of the result. The minimum-degree and nested-dissection
//! permutations come back postordered along the elimination tree (same
//! fill, subtrees contiguous), which is what keeps the regular block grid
//! of the later phases from being cut into tiny blocks.

pub mod amd;
pub mod mc64;
pub mod nd;
pub mod rcm;

use pangulu_sparse::ops::symmetrize;
use pangulu_sparse::permute::{permute, scale};
use pangulu_sparse::{CscMatrix, Permutation, Result};
use pangulu_symbolic::counts::nnz_lu_within;
use pangulu_symbolic::etree::EliminationTree;

/// Which fill-reducing ordering to apply after the stability matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillReducing {
    /// Keep the natural order (no fill reduction).
    Natural,
    /// Approximate minimum degree on the symmetrised pattern, postordered
    /// along the elimination tree.
    Amd,
    /// Nested dissection with minimum-degree leaves, postordered along
    /// the elimination tree.
    NestedDissection,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Try every ordering (natural, RCM, minimum degree, nested
    /// dissection) and keep whichever yields the least fill, measured by
    /// a counts-only symbolic pass that stops once a candidate has lost;
    /// equal fill goes to the earlier of the four as listed. This is the
    /// default — minimum-degree family for irregular matrices,
    /// band-preserving orderings for the dense-banded quantum-chemistry
    /// class, at the cost of a few cheap symbolic count sweeps.
    #[default]
    Auto,
}

/// What the counts-only pass found for one candidate of
/// [`FillReducing::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateFill {
    /// nnz(L+U) under the candidate's permutation.
    Counted(usize),
    /// The count was given up once it passed this many entries — the
    /// least fill of the candidates scored before it.
    AbandonedAbove(usize),
}

/// One candidate ordering and how it scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    pub method: FillReducing,
    pub fill: CandidateFill,
}

/// Output of the full reordering pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Reordering {
    /// Row permutation (`perm[new] = old`), the MC64 matching composed with
    /// the fill-reducing permutation.
    pub row_perm: Permutation,
    /// Column permutation (`perm[new] = old`), the fill-reducing
    /// permutation alone.
    pub col_perm: Permutation,
    /// Row scaling applied before permutation.
    pub row_scale: Vec<f64>,
    /// Column scaling applied before permutation.
    pub col_scale: Vec<f64>,
    /// The reordered, scaled matrix `P_r (D_r A D_c) P_c^T` ready for
    /// symbolic factorisation.
    pub matrix: CscMatrix,
    /// The ordering that produced `col_perm`: the one asked for, or the
    /// one [`FillReducing::Auto`] kept.
    pub method: FillReducing,
    /// `Auto`'s candidates in tie-rule order; empty for any other request.
    pub candidates: Vec<Candidate>,
    /// Hubs the kept ordering set aside and ordered last (see [`amd`]):
    /// the rest was ordered without seeing their rows, which costs some
    /// fill. 0 for `Natural` and `Rcm`.
    pub deferred: usize,
}

impl Reordering {
    /// One line naming the ordering used, the hubs it set aside, and under
    /// `Auto` what each candidate scored: `amd, 30 hubs last (natural
    /// >219280, rcm >219280, amd 219280, nd >219280 nnz(L+U))`.
    pub fn ordering_summary(&self) -> String {
        let mut line = self.method.to_string();
        if self.deferred > 0 {
            line += &format!(", {} hubs last", self.deferred);
        }
        let scores: Vec<String> = self
            .candidates
            .iter()
            .map(|c| match c.fill {
                CandidateFill::Counted(f) => format!("{} {f}", c.method),
                CandidateFill::AbandonedAbove(f) => format!("{} >{f}", c.method),
            })
            .collect();
        if !scores.is_empty() {
            line += &format!(" ({} nnz(L+U))", scores.join(", "));
        }
        line
    }
}

/// The name the CLI's `--ordering` takes for the method.
impl std::fmt::Display for FillReducing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FillReducing::Natural => "natural",
            FillReducing::Amd => "amd",
            FillReducing::NestedDissection => "nd",
            FillReducing::Rcm => "rcm",
            FillReducing::Auto => "auto",
        })
    }
}

/// Runs the PanguLU reordering pipeline on a square matrix:
/// MC64 maximum-product matching with scaling, then the chosen symmetric
/// fill-reducing ordering of the matched matrix's symmetrised pattern.
pub fn reorder_for_lu(a: &CscMatrix, fill: FillReducing) -> Result<Reordering> {
    let m = mc64::mc64(a)?;
    // B = Dr * A * Dc with rows permuted so the matching is on the diagonal.
    let scaled = scale(a, &m.row_scale, &m.col_scale)?;
    let matched = permute(&scaled, &m.row_perm, &Permutation::identity(a.ncols()))?;

    let sym = symmetrize(&matched)?;
    let Chosen { perm: fill_perm, method, deferred, candidates } = choose_ordering(&sym, fill)?;

    let row_perm = fill_perm.compose(&m.row_perm);
    let matrix = permute(&matched, &fill_perm, &fill_perm)?;
    Ok(Reordering {
        row_perm,
        col_perm: fill_perm,
        row_scale: m.row_scale,
        col_scale: m.col_scale,
        matrix,
        method,
        candidates,
        deferred,
    })
}

/// Computes a symmetric fill-reducing permutation of a (structurally
/// symmetric) matrix pattern.
pub fn fill_reducing_ordering(sym: &CscMatrix, method: FillReducing) -> Result<Permutation> {
    Ok(choose_ordering(sym, method)?.perm)
}

/// `Auto`'s candidates in tie-rule order: of two candidates with equal
/// fill the earlier one is kept.
const CANDIDATES: [FillReducing; 4] =
    [FillReducing::Natural, FillReducing::Rcm, FillReducing::Amd, FillReducing::NestedDissection];

/// The order `Auto` scores [`CANDIDATES`] in — the usual winners first, so
/// that the counts of the others stop at the winner's total. Which
/// candidate is kept does not depend on this order.
const SCORING_ORDER: [usize; 4] = [2, 3, 1, 0];

/// What [`choose_ordering`] settled on.
struct Chosen {
    perm: Permutation,
    /// The method that produced `perm`.
    method: FillReducing,
    /// Hubs `perm`'s minimum-degree runs set aside.
    deferred: usize,
    /// The candidates' scores when `Auto` was asked for.
    candidates: Vec<Candidate>,
}

/// The permutation for `method` and how it was arrived at.
fn choose_ordering(sym: &CscMatrix, method: FillReducing) -> Result<Chosen> {
    let (perm, deferred) = match method {
        FillReducing::Natural => (Permutation::identity(sym.ncols()), 0),
        FillReducing::Amd => {
            let (raw, deferred) = amd::order_counted(sym)?;
            (postordered(sym, &raw)?, deferred)
        }
        FillReducing::NestedDissection => {
            let (raw, deferred) = nd::dissect_counted(sym, nd::NdOptions::default())?;
            (postordered(sym, &raw)?, deferred)
        }
        FillReducing::Rcm => (rcm::rcm_order(sym)?, 0),
        FillReducing::Auto => {
            let mut best = (usize::MAX, 0, choose_ordering(sym, FillReducing::Natural)?);
            let mut fills = [CandidateFill::AbandonedAbove(usize::MAX); 4];
            for rank in SCORING_ORDER {
                let chosen = choose_ordering(sym, CANDIDATES[rank])?;
                fills[rank] = match nnz_lu_within(sym, &chosen.perm, best.0)? {
                    Some(fill) => {
                        if (fill, rank) < (best.0, best.1) {
                            best = (fill, rank, chosen);
                        }
                        CandidateFill::Counted(fill)
                    }
                    None => CandidateFill::AbandonedAbove(best.0),
                };
            }
            let candidates =
                CANDIDATES.iter().zip(fills).map(|(&method, fill)| Candidate { method, fill });
            return Ok(Chosen { candidates: candidates.collect(), ..best.2 });
        }
    };
    Ok(Chosen { perm, method, deferred, candidates: Vec::new() })
}

/// `perm` re-sequenced as a postorder of the elimination (assembly) tree
/// of the pattern it reorders — the last step of the published AMD, and
/// what METIS's separator trees have by construction. Children come
/// before parents and every subtree is one contiguous index range, so the
/// columns of a subtree share blocks of the regular grid instead of being
/// sprayed across it. Children are visited in ascending pivot position:
/// the child eliminated last sits directly before its parent (measured —
/// largest-subtree-first costs kkt 4× in numeric time). A postorder is an
/// equivalent reordering: the filled graph, hence nnz(L+U), is unchanged.
fn postordered(sym: &CscMatrix, perm: &Permutation) -> Result<Permutation> {
    let tree = EliminationTree::from_permuted_pattern(sym, perm)?;
    Permutation::from_vec(tree.postorder().into_iter().map(|v| perm.old_of(v)).collect())
}

/// nnz(L+U) the permutation would produce, via a counts-only symbolic
/// pass (no fill pattern is materialised).
#[cfg(test)]
pub(crate) fn fill_of(sym: &CscMatrix, perm: &Permutation) -> Result<usize> {
    Ok(nnz_lu_within(sym, perm, usize::MAX)?.unwrap_or(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;

    #[test]
    fn pipeline_produces_valid_permutations() {
        let a = gen::circuit(200, 3);
        for method in [
            FillReducing::Natural,
            FillReducing::Amd,
            FillReducing::NestedDissection,
            FillReducing::Rcm,
            FillReducing::Auto,
        ] {
            let r = reorder_for_lu(&a, method).unwrap();
            assert_eq!(r.row_perm.len(), 200);
            assert_eq!(r.col_perm.len(), 200);
            r.matrix.validate().unwrap();
            // The matched+scaled diagonal must be structurally full and
            // nonzero everywhere for static pivoting.
            for j in 0..200 {
                assert!(r.matrix.get(j, j).abs() > 1e-14, "zero diagonal at {j} with {method:?}");
            }
        }
    }

    #[test]
    fn auto_never_worse_than_any_candidate() {
        for seed in [1u64, 5, 9] {
            let a = pangulu_sparse::ops::symmetrize(&gen::random_sparse(120, 0.05, seed)).unwrap();
            let auto = fill_reducing_ordering(&a, FillReducing::Auto).unwrap();
            let f = |p: &pangulu_sparse::Permutation| fill_of(&a, p).unwrap();
            let best = [
                FillReducing::Natural,
                FillReducing::Rcm,
                FillReducing::Amd,
                FillReducing::NestedDissection,
            ]
            .into_iter()
            .map(|m| f(&fill_reducing_ordering(&a, m).unwrap()))
            .min()
            .unwrap();
            assert_eq!(f(&auto), best, "seed {seed}");
        }
    }

    #[test]
    fn auto_reports_the_winner_and_abandons_counts_above_it() {
        let a = gen::circuit(400, 2);
        let r = reorder_for_lu(&a, FillReducing::Auto).unwrap();
        assert_eq!(r.candidates.iter().map(|c| c.method).collect::<Vec<_>>(), CANDIDATES);
        let sym = symmetrize(&r.matrix).unwrap();
        let kept = fill_of(&sym, &Permutation::identity(400)).unwrap();
        for c in &r.candidates {
            match c.fill {
                CandidateFill::Counted(f) if c.method == r.method => assert_eq!(f, kept),
                CandidateFill::Counted(f) => assert!(f >= kept, "{c:?} beats the winner"),
                CandidateFill::AbandonedAbove(f) => assert!(f >= kept && c.method != r.method),
            }
        }
        // Hubs make the natural order fill far more than minimum degree.
        assert_eq!(r.method, FillReducing::Amd);
        assert!(matches!(r.candidates[0].fill, CandidateFill::AbandonedAbove(_)));
        // … and its two hubs (lists longer than √nnz) are named in the summary.
        assert_eq!(r.deferred, 2);
        let summary = r.ordering_summary();
        assert!(summary.starts_with("amd, 2 hubs last (natural >"), "{summary}");

        let fixed = reorder_for_lu(&a, FillReducing::Rcm).unwrap();
        assert_eq!((fixed.method, fixed.candidates.len()), (FillReducing::Rcm, 0));
        assert_eq!((fixed.deferred, fixed.ordering_summary().as_str()), (0, "rcm"));
    }

    #[test]
    fn auto_breaks_ties_towards_the_natural_order() {
        // No ordering of a tridiagonal or a diagonal matrix fills at all.
        for a in [gen::tridiagonal(30), CscMatrix::identity(5), CscMatrix::zeros(0, 0)] {
            let chosen = choose_ordering(&a, FillReducing::Auto).unwrap();
            assert_eq!(chosen.method, FillReducing::Natural);
            assert_eq!(chosen.perm, Permutation::identity(a.ncols()));
        }
    }

    /// The raw orderings `choose_ordering` postorders, for comparison: the
    /// un-postordered pivot sequence lives on only here.
    fn raw_orderings(sym: &CscMatrix) -> [(FillReducing, Permutation); 2] {
        [
            (FillReducing::Amd, amd::amd_order(sym).unwrap()),
            (
                FillReducing::NestedDissection,
                nd::nested_dissection(sym, nd::NdOptions::default()).unwrap(),
            ),
        ]
    }

    #[test]
    fn amd_and_nd_come_back_postordered_at_equal_fill() {
        for a in [
            gen::circuit(500, 2),
            gen::kkt(150, 70, 3),
            gen::laplacian_2d(19, 14),
            gen::dense_banded(200, 9, 0.6, 4),
        ] {
            let sym = symmetrize(&a).unwrap();
            for (method, raw) in raw_orderings(&sym) {
                let perm = fill_reducing_ordering(&sym, method).unwrap();
                assert_eq!(perm, postordered(&sym, &raw).unwrap(), "{method}: the last step");
                assert_eq!(fill_of(&sym, &perm).unwrap(), fill_of(&sym, &raw).unwrap(), "{method}");
                // Idempotent: a postordered permutation is its own postorder.
                assert_eq!(postordered(&sym, &perm).unwrap(), perm, "{method}");
            }
        }
    }

    #[test]
    fn postorder_moves_a_late_leaf_next_to_its_subtree() {
        // An arrow pointing at vertex 4 with two arms {0, 2} and {1, 3}:
        // eliminated 0, 1, 2, 3 the arms interleave; postordered, each arm
        // is contiguous and the arm eliminated last sits before the root.
        let mut coo = pangulu_sparse::CooMatrix::new(5, 5);
        for (i, j) in [(0, 2), (1, 3), (2, 4), (3, 4)] {
            coo.push(i, j, 1.0).unwrap();
            coo.push(j, i, 1.0).unwrap();
        }
        let sym = coo.to_csc();
        let post = postordered(&sym, &Permutation::identity(5)).unwrap();
        assert_eq!(post.as_slice(), &[0, 2, 1, 3, 4]);
    }

    #[test]
    fn chains_forests_natural_and_rcm_are_left_alone() {
        // A chain and a forest of roots are already postordered.
        for a in [gen::tridiagonal(30), CscMatrix::identity(5), CscMatrix::zeros(0, 0)] {
            let id = Permutation::identity(a.ncols());
            assert_eq!(postordered(&a, &id).unwrap(), id);
        }
        // Natural and RCM are returned as asked for, postorder or not.
        let sym = symmetrize(&gen::circuit(300, 5)).unwrap();
        let rcm = rcm::rcm_order(&sym).unwrap();
        assert_ne!(postordered(&sym, &rcm).unwrap(), rcm, "the fixture can tell");
        assert_eq!(fill_reducing_ordering(&sym, FillReducing::Rcm).unwrap(), rcm);
        assert_eq!(
            fill_reducing_ordering(&sym, FillReducing::Natural).unwrap(),
            Permutation::identity(300)
        );
    }

    #[test]
    fn reordering_is_a_function_of_the_input() {
        for a in [gen::circuit(300, 4), gen::kkt(120, 50, 4), gen::laplacian_2d(17, 13)] {
            let first = reorder_for_lu(&a, FillReducing::Auto).unwrap();
            assert_eq!(first, reorder_for_lu(&a, FillReducing::Auto).unwrap());
        }
    }

    #[test]
    fn non_square_input_is_an_error() {
        let a = CscMatrix::zeros(3, 5);
        for method in [FillReducing::Amd, FillReducing::NestedDissection, FillReducing::Auto] {
            assert!(matches!(
                fill_reducing_ordering(&a, method),
                Err(pangulu_sparse::SparseError::NotSquare { nrows: 3, ncols: 5 })
            ));
        }
    }

    #[test]
    fn auto_prefers_band_preserving_order_on_banded_input() {
        // A dense-banded matrix fills least in its natural (banded) order;
        // Auto must not degrade it through minimum degree.
        let a = pangulu_sparse::ops::ensure_diagonal(
            &pangulu_sparse::ops::symmetrize(&gen::dense_banded(300, 12, 0.5, 3)).unwrap(),
        )
        .unwrap();
        let auto = fill_reducing_ordering(&a, FillReducing::Auto).unwrap();
        let amd = fill_reducing_ordering(&a, FillReducing::Amd).unwrap();
        let f = |p: &pangulu_sparse::Permutation| fill_of(&a, p).unwrap();
        assert!(f(&auto) <= f(&amd));
    }

    #[test]
    fn pipeline_matrix_matches_manual_application() {
        let a = gen::random_sparse(60, 0.08, 9);
        let r = reorder_for_lu(&a, FillReducing::Amd).unwrap();
        let scaled = scale(&a, &r.row_scale, &r.col_scale).unwrap();
        let manual = permute(&scaled, &r.row_perm, &r.col_perm).unwrap();
        assert_eq!(manual, r.matrix);
    }
}

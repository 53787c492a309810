//! Symbolic factorisation for the PanguLU reproduction.
//!
//! PanguLU (paper §4.1/§5.2) symmetrises the matrix and runs a
//! symmetric-pruning symbolic factorisation, which amounts to computing
//! the Cholesky fill pattern of `pattern(A + Aᵀ)`: the resulting L and U
//! patterns are transposes of each other and — crucially for the numeric
//! phase — **transitively closed under the LU elimination rule**, so every
//! kernel in the numeric factorisation writes only into pre-allocated
//! structure ("no extra fill-ins", Fig. 1e).
//!
//! The crate provides:
//!
//! * [`etree`] — elimination trees (Liu's algorithm), postorder, levels;
//! * [`fill`] — the symmetric-pruned fill pattern (PanguLU's symbolic: one
//!   pattern-only walk, counted then written in place, with `u32` rows)
//!   and the construction of the filled `L+U` matrix the blocking stage
//!   is checked against;
//! * [`gp`] — a Gilbert–Peierls per-column reachability symbolic
//!   factorisation of the *unsymmetric* pattern, the SuperLU_DIST-style
//!   comparator used in the Figure 11 experiment;
//! * [`counts`] — `nnz(L+U)` under a candidate ordering without
//!   materialising the pattern or the permuted matrix, for the `Auto`
//!   ordering comparison;
//! * [`stats`] — nnz/FLOP accounting used by Table 3 and the cost models.

pub mod counts;
pub mod etree;
pub mod fill;
pub mod gp;
pub mod stats;

pub use etree::EliminationTree;
pub use fill::{symbolic_fill, FilledPattern};
pub use gp::gp_symbolic;

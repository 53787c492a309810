//! The block-wise sparse BLAS kernels of PanguLU (paper Table 1).
//!
//! PanguLU's numeric factorisation runs four operations on sparse
//! sub-matrix blocks (Fig. 2):
//!
//! * **GETRF** — LU-factorise a diagonal block in place (packed `L\U`,
//!   unit lower diagonal implied);
//! * **GESSM** — lower triangular solve `L X = B` updating a block right
//!   of the diagonal;
//! * **TSTRF** — upper triangular solve `X U = B` updating a block below
//!   the diagonal;
//! * **SSSSM** — sparse-sparse Schur complement `C ← C − A·B`.
//!
//! Each comes in several variants differing in *addressing method*
//! (`Direct` dense scatter/gather, `Bin-search` into the sparse pattern,
//! `Merge` two-pointer walks) and *parallelisation* (sequential CPU,
//! data-parallel "warp-level column" teams, lock-free "un-sync SFLU"
//! claim-in-order columns) — 17 kernels in total, mirroring Table 1. The
//! paper's CUDA/ROCm kernels are re-expressed as CPU implementations with
//! the same algorithmic structure (see `DESIGN.md`, substitution table).
//!
//! **Pattern contract.** Every kernel writes only into the block's stored
//! pattern. The symbolic phase guarantees the global `L+U` pattern is
//! transitively closed under the elimination rule, so every update target
//! structurally exists; kernels `debug_assert` this instead of allocating.
//!
//! [`select`] implements the decision trees of Figure 8 that pick a
//! variant per block from `nnz` / FLOP features. One leaf is not in the
//! paper's table: the **dense-tile lane** `D_V1` ([`tile`]), which
//! blocks that fill-in has made completely dense take for SSSSM, GESSM
//! and TSTRF — bitwise equal to the sparse variants, without their
//! index traffic.

pub mod flops;
pub mod getrf;
pub mod plan;
pub mod reference;
pub mod scratch;
pub mod select;
pub mod ssssm;
pub mod tile;
pub mod timed;
pub mod trsm;

pub use plan::{GessmPlan, GetrfPlan, KernelPlans, PlanStats, Route, SsssmPlan, TstrfPlan};
pub use scratch::KernelScratch;
pub use select::{KernelSelector, Thresholds};
pub use ssssm::SsssmUpdate;
pub use timed::TimedKernels;

/// The four kernel classes of the numeric factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Diagonal block factorisation.
    Getrf,
    /// Lower triangular solve (updates U panel blocks).
    Gessm,
    /// Upper triangular solve (updates L panel blocks).
    Tstrf,
    /// Schur complement update.
    Ssssm,
}

impl std::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KernelClass::Getrf => "GETRF",
            KernelClass::Gessm => "GESSM",
            KernelClass::Tstrf => "TSTRF",
            KernelClass::Ssssm => "SSSSM",
        };
        f.write_str(s)
    }
}

/// GETRF variants (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GetrfVariant {
    /// `C_V1`: Direct addressing, row-ordered sequential, dense mapping.
    #[default]
    CV1,
    /// `G_V1`: Bin-search addressing, un-sync SFLU claim-in-order columns.
    GV1,
    /// `G_V2`: Direct addressing, un-sync SFLU, per-column dense mapping.
    GV2,
}

/// GESSM / TSTRF variants (Table 1 lists the same five for both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrsmVariant {
    /// `C_V1`: Merge addressing, sequential column order.
    #[default]
    CV1,
    /// `C_V2`: Direct addressing, sequential column order, dense mapping.
    CV2,
    /// `G_V1`: Bin-search addressing, warp-level column teams.
    GV1,
    /// `G_V2`: Bin-search addressing, un-sync row-oriented (dot-product
    /// formulation over the factor's rows).
    GV2,
    /// `G_V3`: Direct addressing, warp-level column teams, dense mapping.
    GV3,
    /// `D_V1`: dense-tile lane — register-blocked dense solve straight
    /// on the value arrays of a full factor block and a full panel block
    /// (see [`tile`]). Not in Table 1; picked only by
    /// [`KernelSelector::gessm_on`] / [`KernelSelector::tstrf_on`].
    DV1,
}

/// SSSSM variants (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SsssmVariant {
    /// `C_V1`: Direct addressing, approximately equal-load column blocks,
    /// result mapped dense.
    #[default]
    CV1,
    /// `C_V2`: Bin-search addressing, adaptive split-bin per column.
    CV2,
    /// `G_V1`: Bin-search addressing, adaptive multi-level parallelism.
    GV1,
    /// `G_V2`: Direct addressing, warp-level column teams.
    GV2,
    /// `D_V1`: dense-tile lane — register-blocked dense update straight
    /// on the value array of a full target block (see [`tile`]). Not in
    /// Table 1; picked only by [`KernelSelector::ssssm_on`].
    DV1,
}

/// All 17 kernels of Table 1 as `(class, label)` pairs, for harness
/// enumeration (the dense-tile lane `D_V1` is this repo's, not the
/// table's).
pub const ALL_KERNELS: [(KernelClass, &str); 17] = [
    (KernelClass::Getrf, "C_V1"),
    (KernelClass::Getrf, "G_V1"),
    (KernelClass::Getrf, "G_V2"),
    (KernelClass::Gessm, "C_V1"),
    (KernelClass::Gessm, "C_V2"),
    (KernelClass::Gessm, "G_V1"),
    (KernelClass::Gessm, "G_V2"),
    (KernelClass::Gessm, "G_V3"),
    (KernelClass::Tstrf, "C_V1"),
    (KernelClass::Tstrf, "C_V2"),
    (KernelClass::Tstrf, "G_V1"),
    (KernelClass::Tstrf, "G_V2"),
    (KernelClass::Tstrf, "G_V3"),
    (KernelClass::Ssssm, "C_V1"),
    (KernelClass::Ssssm, "C_V2"),
    (KernelClass::Ssssm, "G_V1"),
    (KernelClass::Ssssm, "G_V2"),
];

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
//! `Merge` two-pointer walks) — 17 kernels in total, mirroring Table 1.
//! The paper's `G_V*` kernels get their parallelism from the GPU that
//! runs them; here every variant runs on the thread of the task that
//! calls it, keeps Table 1's addressing method, and leaves the
//! parallelism to the executor (workers or ranks) — one level only, no
//! thread teams inside a kernel (see `DESIGN.md`, substitution table).
//!
//! **Pattern contract.** Every kernel writes only into the block's stored
//! pattern. The symbolic phase guarantees the global `L+U` pattern is
//! transitively closed under the elimination rule, so every update target
//! structurally exists; kernels `debug_assert` this instead of allocating.
//!
//! [`select`] picks a variant per block from `nnz` / FLOP features: the
//! decision trees of Figure 8 with the leaves this host's calibration
//! found, as constants. One leaf is not in the paper's table: the
//! **dense-tile lane** `D_V1` ([`tile`]), which blocks that fill-in has
//! made completely dense take for all four classes — bitwise equal to
//! the sparse variants, without their index traffic.

pub mod flops;
pub mod getrf;
pub mod isa;
pub mod plan;
pub mod reference;
pub mod scratch;
pub mod select;
pub mod ssssm;
pub mod tile;
pub mod timed;
pub mod trsm;

pub use plan::{KernelPlans, Plan, PlanStats, PlanTask, Route};
pub use scratch::KernelScratch;
pub use select::{KernelSelector, Thresholds};
pub use timed::TimedKernels;

/// GETRF variants (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GetrfVariant {
    /// `C_V1`: Direct addressing, row-ordered sequential, dense mapping.
    #[default]
    CV1,
    /// `G_V1`: Bin-search addressing, SFLU column order.
    GV1,
    /// `G_V2`: Direct addressing, SFLU column order, per-column dense
    /// mapping (`C_V1`'s loop).
    GV2,
    /// `D_V1`: dense-tile lane — register-blocked left-looking LU straight
    /// on the value array of a full diagonal block (see [`tile`]). Not in
    /// Table 1; picked only by [`KernelSelector::getrf_on`].
    DV1,
}

/// GESSM / TSTRF variants (Table 1 lists the same five for both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrsmVariant {
    /// `C_V1`: Merge addressing, sequential column order.
    #[default]
    CV1,
    /// `C_V2`: Direct addressing, sequential column order, dense mapping.
    CV2,
    /// `G_V1`: Bin-search addressing, column at a time.
    GV1,
    /// `G_V2`: Bin-search addressing, row-oriented (dot-product
    /// formulation over the factor's rows).
    GV2,
    /// `G_V3`: Direct addressing, dense mapping (`C_V2`'s loop).
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
    /// `G_V1`: Bin-search addressing, adaptive split-bin per column
    /// (`C_V2`'s loop).
    GV1,
    /// `G_V2`: Direct addressing, result mapped dense (`C_V1`'s loop).
    GV2,
    /// `D_V1`: dense-tile lane — register-blocked dense update straight
    /// on the value array of a full target block (see [`tile`]). Not in
    /// Table 1; picked only by [`KernelSelector::ssssm_on`].
    DV1,
}

//! Sparse matrix substrate for the PanguLU reproduction.
//!
//! This crate provides everything the solver stack needs from a sparse
//! matrix library, written from scratch:
//!
//! * [`CooMatrix`], [`CscMatrix`], [`CsrMatrix`] — the triplet, compressed
//!   sparse column and compressed sparse row formats, with validated
//!   constructors and conversions. CSC is the working format of the solver,
//!   mirroring the paper's two-layer CSC-of-CSC-blocks layout (§4.2).
//! * [`DenseMatrix`] — a small column-major dense matrix used as the
//!   reference implementation in tests and by the supernodal baseline.
//! * [`io`] — Matrix Market (`.mtx`) reading and writing, the only input
//!   format the original PanguLU artifact supports.
//! * [`gen`] — synthetic matrix generators standing in for the 16
//!   SuiteSparse matrices of the paper's Table 3 (see `DESIGN.md` for the
//!   substitution rationale), plus generic generators for tests.
//! * [`permute`] — row/column permutations and row/column scaling.
//! * [`ops`] — transpose, pattern symmetrisation, SpMV, residual norms.
//! * [`diagnostics`] — structural/numerical matrix reports.

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod diagnostics;
pub mod gen;
pub mod io;
pub mod ops;
pub mod permute;
pub mod runs;
pub mod scalar;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use permute::Permutation;
pub use runs::{collect_runs, for_each_run, RunSeg};
pub use scalar::Scalar;

/// Errors produced by the sparse substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An index was out of bounds for the matrix dimensions.
    IndexOutOfBounds { row: usize, col: usize, nrows: usize, ncols: usize },
    /// A compressed structure was malformed (non-monotone pointers,
    /// unsorted or duplicate row indices, length mismatches).
    InvalidStructure(String),
    /// A Matrix Market file could not be parsed.
    Parse(String),
    /// An I/O error occurred while reading or writing a file.
    Io(String),
    /// The operation requires a square matrix.
    NotSquare { nrows: usize, ncols: usize },
    /// Dimensions of two operands do not match.
    DimensionMismatch(String),
    /// A matrix handed to a numeric-only refactorisation does not have
    /// the sparsity pattern the cached analysis was built for (different
    /// dimension, nonzero count, or nonzero positions).
    PatternMismatch(String),
    /// A stored value is NaN or infinite; `(row, col)` is the first such
    /// entry in column-major order. For a right-hand side handed to a
    /// solve, `col` is the index of the right-hand side.
    NonFinite { row: usize, col: usize },
    /// The numeric factorisation met `pivots` zero (or NaN) pivots with the
    /// static-pivot floor disabled (`pivot_floor_rel = 0`): the matrix is
    /// numerically singular and the factors are unusable.
    ZeroPivot { pivots: usize },
    /// The matrix order `n` is above `max`, the largest order a structure
    /// with 32-bit indices (the symbolic fill pattern) can address.
    OrderTooLarge { n: usize, max: usize },
    /// A table with one 32-bit entry per input nonzero (`what` names the
    /// entry, e.g. a refactor scatter map's block id) would have to hold
    /// `index`, above `max`.
    IndexTooLarge { what: &'static str, index: usize, max: usize },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, nrows, ncols } => {
                write!(f, "index ({row}, {col}) out of bounds for {nrows}x{ncols} matrix")
            }
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::Parse(msg) => write!(f, "matrix market parse error: {msg}"),
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "operation requires a square matrix, got {nrows}x{ncols}")
            }
            SparseError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            SparseError::PatternMismatch(msg) => write!(f, "sparsity pattern mismatch: {msg}"),
            SparseError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not a finite number")
            }
            SparseError::ZeroPivot { pivots } => write!(
                f,
                "{pivots} zero pivot(s) with the pivot floor disabled: the matrix is \
                 numerically singular (a positive pivot_floor_rel perturbs them)"
            ),
            SparseError::OrderTooLarge { n, max } => {
                write!(f, "matrix order {n} is above {max}, the largest a 32-bit index addresses")
            }
            SparseError::IndexTooLarge { what, index, max } => {
                write!(f, "{what} {index} is above {max}, the largest a 32-bit entry holds")
            }
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

/// Result alias for the sparse substrate.
pub type Result<T> = std::result::Result<T, SparseError>;

//! # pangulu
//!
//! A from-scratch Rust reproduction of **PanguLU** (Fu et al., SC '23): a
//! scalable regular two-dimensional block-cyclic sparse direct solver.
//!
//! This façade crate re-exports the whole stack:
//!
//! * [`sparse`] — matrix formats, Matrix Market I/O, synthetic generators;
//! * [`reorder`] — MC64-style stability matching/scaling, AMD, nested
//!   dissection;
//! * [`symbolic`] — elimination trees and symmetric-pruning symbolic
//!   factorisation;
//! * [`kernels`] — the 17 block-wise sparse BLAS kernels of the paper's
//!   Table 1 and the kernel selection of Figure 8, as calibrated on this
//!   host;
//! * [`comm`] — the message-passing runtime substrate (rank mailboxes,
//!   cost model, platform profiles);
//! * [`core`] — the two-layer block structure, the static load-balancing
//!   remap, the synchronisation-free numeric factorisation, the
//!   discrete-event scalability simulator and the top-level
//!   [`Solver`](prelude::Solver);
//! * [`supernodal`] — a SuperLU_DIST-style supernodal baseline used as the
//!   comparator in every experiment.
//!
//! ## Quickstart
//!
//! ```
//! use pangulu::prelude::*;
//!
//! // A small SPD 2-D Laplacian and a right-hand side.
//! let a = pangulu::sparse::gen::laplacian_2d(10, 10);
//! let b = vec![1.0; a.nrows()];
//!
//! // Factor with 4 simulated ranks and solve.
//! let solver = Solver::builder().ranks(4).build(&a).expect("factorisation");
//! let x = solver.solve(&b).expect("solve");
//!
//! let resid = pangulu::sparse::ops::relative_residual(&a, &x, &b).unwrap();
//! assert!(resid < 1e-10);
//! ```

pub use pangulu_comm as comm;
pub use pangulu_core as core;
pub use pangulu_kernels as kernels;
pub use pangulu_metrics as metrics;
pub use pangulu_reorder as reorder;
pub use pangulu_sparse as sparse;
pub use pangulu_supernodal as supernodal;
pub use pangulu_symbolic as symbolic;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use pangulu_core::solver::{Precision, Solver, SolverBuilder, SolverOptions, SolverPlan};
    pub use pangulu_sparse::{CooMatrix, CscMatrix, CsrMatrix, DenseMatrix};
}

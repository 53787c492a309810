//! PanguLU core: the regular 2-D block-cyclic sparse direct solver.
//!
//! This crate assembles the substrates (`pangulu-sparse`, `-reorder`,
//! `-symbolic`, `-kernels`, `-comm`) into the solver the paper describes:
//!
//! * [`block`] — the two-layer sparse structure (§4.2, Fig. 6a/b): a CSC
//!   of blocks whose non-empty blocks are themselves CSC sub-matrices,
//!   plus the block-size heuristic driven by matrix order and
//!   post-symbolic density;
//! * [`layout`] — the block-cyclic owner map and the static
//!   load-balancing remap over elimination time slices (§4.2, Fig. 6c/d);
//! * [`task`] — the kernel task graph and the one dependency rule every
//!   executor runs (the synchronisation-free array of §4.4): each task's
//!   initial wait, the tasks a finished task releases, and from them the
//!   ranks a finished block is shipped to; plus the step-major
//!   ready-queue order;
//! * [`shared`] — the one task-execution core, the countdown engine:
//!   kernel dispatch, the countdown and release over the tasks of one
//!   owner, the ready heap, the plan build and the per-worker account,
//!   over one block store. Its one-worker instance is the one-rank
//!   executor, more workers the multicore mode, and each distributed
//!   rank;
//! * [`seq`] — the one-rank entry point (the "single GPU" configuration
//!   of Table 4), and the unplanned right-looking sweep every executor is
//!   tested against, which also leaves Schur complements;
//! * [`dist`] — the message edge around the engine: threads as MPI
//!   ranks, each the engine's one-worker instance over its own block
//!   table for the tasks it owns, block messages over mailboxes, under
//!   the synchronisation-free schedule of §4.4 (the level-set baseline it
//!   is ablated against in Fig. 14 lives in [`des`]);
//! * [`trace_check`] — the schedule-trace validator: proves a traced run
//!   respected every dependency, ran each task exactly once on its
//!   owner, and delivered each block message exactly once per
//!   destination — the oracle behind the fault-injection test matrix;
//! * [`trisolve`] — block forward/backward substitution (phase 5), the
//!   solve every [`Solver`] runs in every mode;
//! * [`dist_solve`] — `solve_distributed_on`, the benchmark pipeline's
//!   entry point, which runs the [`trisolve`] sweeps;
//! * [`des`] — the discrete-event simulator that replays the real task
//!   DAG under the platform cost model for the 1→128 rank scalability
//!   experiments (Figs. 5, 12, 13, 14);
//! * [`solver`] — the user-facing [`solver::Solver`] API running the full
//!   five-phase pipeline (reorder → symbolic → preprocess → numeric →
//!   solve).

pub mod block;
pub mod des;
pub mod dist;
pub mod dist_solve;
pub mod layout;
pub mod seq;
pub mod shared;
pub mod solver;
pub mod task;
pub mod trace_check;
pub mod trisolve;

pub use block::BlockMatrix;
pub use layout::OwnerMap;
pub use solver::{Precision, Solver, SolverBuilder, SolverOptions, SolverPlan};

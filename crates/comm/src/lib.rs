//! Distributed-runtime substrate for the PanguLU reproduction.
//!
//! The paper runs on MPI ranks, four per node, one GPU each. This crate
//! provides the message-passing runtime the solver runs on instead
//! (see `DESIGN.md`, substitution table): **ranks are OS threads** with
//! per-rank mailboxes over in-process channels. Ranks write disjoint
//! blocks of one store — each factors the blocks it owns in place — and
//! remote operands arrive as message copies: a rank never reads another
//! rank's block except from the message that carried it, exactly like
//! MPI. One fan-out shares a single read-only payload among its
//! destinations.
//!
//! * [`grid`] — the 2-D process grid and block-cyclic owner map (§4.2);
//! * [`msg`] — the block messages the numeric factorisation exchanges;
//! * [`mailbox`] — per-rank mailboxes over in-process channels, with
//!   non-blocking probe and blocking receive (the "wait for a sub-matrix
//!   block" state of Fig. 10); all per-edge accounting and fault
//!   injection lives here;
//! * [`cost`] — the communication/compute cost model and the two platform
//!   profiles (A100-class, MI50-class) used by the discrete-event
//!   scalability simulator;
//! * [`fault`] — deterministic fault injection (delay, bounded
//!   reordering, latency/bandwidth shaping, and one named lost message)
//!   used to stress the synchronisation-free scheduler under adversarial
//!   message timing.

pub mod cost;
pub mod fault;
pub mod grid;
pub mod mailbox;
pub mod msg;

pub use cost::PlatformProfile;
pub use fault::{EdgeRng, FaultPlan};
pub use grid::ProcessGrid;
pub use mailbox::{DeliveryRecord, Mailbox, MailboxSet, TransportKind};
pub use msg::{BlockMsg, BlockRole};

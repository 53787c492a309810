//! The repo benchmark: five pipeline workloads, three end-to-end metrics,
//! and a per-layer trace taken from outside the library. See `README.md`.

pub mod compare;
pub mod heap;
pub mod layers;
pub mod pipeline;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

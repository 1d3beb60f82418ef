//! Closed-loop serving benchmark for the taUW workspace.
//!
//! One caller builds a wave of steps (untimed), submits it to the serving
//! engine, and waits for the results before building the next wave. Four
//! workloads (see [`workload::Workload`]) each stress a different layer of
//! the serving path. An untraced run reports the end-to-end metrics; a
//! traced run recomposes the same waves stage by stage through the public
//! stage functions and attributes the engine's time to each layer. See
//! `perfbench/README.md` for the metric → layer → workload table.

pub mod alloc;
pub mod cpu;
pub mod gate;
pub mod recompose;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traffic;
pub mod workload;
pub mod worlds;

/// Every heap allocation of the benchmark process goes through the counter;
/// it only counts while a traced run switches it on.
#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

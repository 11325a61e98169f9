//! The repository's benchmark.
//!
//! One request path through every layer (`path`), timed whole and then
//! stage by stage (`trace`), over three data-path workloads, plus the
//! scenario suites and the policy rollout (`workloads`). `cli` is the
//! command line; `benchmark/README.md` says what each number means.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod json;
pub mod path;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

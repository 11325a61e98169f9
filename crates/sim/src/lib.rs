//! # canal-sim
//!
//! Deterministic discrete-event simulation substrate for the Canal Mesh
//! reproduction.
//!
//! The crate provides four building blocks used by every other crate in the
//! workspace:
//!
//! * [`time`] — a nanosecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]) with no dependency on wall-clock time, so every run is
//!   reproducible.
//! * [`engine`] — an event queue and driver loop in the classic
//!   model-handles-event style: the model is an explicit state machine, the
//!   engine owns time.
//! * [`rng`] — a seeded random-number source with the distribution samplers
//!   the workloads need (exponential, normal, lognormal, Pareto, Zipf).
//! * [`metrics`] / [`stats`] / [`output`] — counters, gauges, log-bucketed
//!   histograms, time series, summary statistics, and plain-text/CSV table
//!   writers used by the experiment harness.
//! * [`queueing`] — a multi-core FIFO server used to model proxy CPUs; both
//!   queueing delay and CPU utilization fall out of busy-time integration
//!   rather than closed-form approximations. Its fair-queueing sibling
//!   ([`FairCpuServer`]) adds bounded per-class queues and deficit-weighted
//!   round-robin scheduling for the gateway overload-control layer.
//! * [`faults`] — deterministic fault injection: [`FaultPlan`]s written in
//!   a scenario DSL schedule typed fault events into a simulation, with
//!   [`FaultState`](faults::FaultState) ground-truth bookkeeping for chaos experiments (Fig. 8).
//! * [`invariant`] — runtime determinism self-checks: the engine
//!   debug-asserts event-order invariants on every dispatch, and [`Digest`]
//!   folds run outcomes so double-run harnesses can demand bit-identical
//!   results (see `tests/determinism.rs` and DESIGN.md).
//! * [`shared`] — [`SharedList`], the copy-on-write list a distributed
//!   document (a policy's tenants, a route table) is held in: a clone is one
//!   reference count, and an edit copies the list only while another holder
//!   shares it.
//!
//! Design follows the event-driven, allocation-conscious style of embedded
//! TCP/IP stacks: explicit state machines, no async runtime, no global state.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod engine;
pub mod faults;
pub mod invariant;
pub mod metrics;
pub mod output;
pub mod queueing;
pub mod rng;
pub mod shared;
pub mod stats;
pub mod time;

pub use engine::{Model, Scheduler, Simulation};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultTarget};
pub use invariant::{Digest, Fold, Stats};
pub use metrics::Histogram;
pub use queueing::{ClassConfig, ClassId, CpuServer, FairCpuServer, QueueReject};
pub use rng::SimRng;
pub use shared::SharedList;
pub use time::{SimDuration, SimTime};

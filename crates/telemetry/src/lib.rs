//! # canal-telemetry
//!
//! Deterministic, digest-stable, mesh-wide tracing pipeline — the
//! centralized-observability half of the paper's functional-equivalence
//! argument (§4.1.1).
//!
//! * [`span`] — spans, recording sites, latency segments, bounded per-site
//!   ring buffers.
//! * [`sampler`] — propagation-consistent head sampling (keyed hash, salt
//!   from a *caller-supplied* `SimRng`) plus a tail policy that always keeps
//!   error and slowest-percentile traces.
//! * [`cost`] — every recorded span charges CPU and bytes; brownout shedding
//!   refunds instead of charging.
//! * [`collector`] — order-insensitive trace assembly, nesting validation,
//!   critical-path extraction, latency decomposition.
//!
//! The [`TraceContext`](canal_net::TraceContext) itself lives in `canal-net`
//! so the mesh layer can carry it as request metadata without depending on
//! this crate. Layering: this crate sits on `canal-sim` + `canal-net` only;
//! gateway, control plane and the bench harness consume it.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]

pub mod collector;
pub mod cost;
pub mod sampler;
pub mod span;

pub use collector::Collector;
pub use cost::{TelemetryCostModel, TelemetryMeter};
pub use sampler::{HeadSampler, TailPolicy};
pub use span::{HopSite, SegmentKind, Span, SpanRing};

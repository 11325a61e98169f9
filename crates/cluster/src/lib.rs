//! # canal-cluster
//!
//! The multi-tenant cluster substrate the mesh architectures run against:
//! who the tenants are, how their requests find gateway backends, and how
//! unhealthy backends are found. The paper's experiments depend on cluster
//! *counts* — pods, nodes, services and their §2.2 ratios — not on kubelet
//! internals; those counts are `canal_mesh::arch::ClusterShape`'s, not this
//! crate's.
//!
//! * [`topology`] — tenants and their L7 feature adoption (the Table 3
//!   population model).
//! * [`dns`] — the customized DNS resolution of §4.2: requests resolve to
//!   healthy gateway backends in the client's AZ first, spilling to other
//!   AZs only when the local ones are all down.
//! * [`probe`] — the health-check framework: periodic probes, k-failure /
//!   m-success hysteresis, and per-target state the §6.1 aggregation
//!   machinery counts.
//! * [`graydetect`] — differential gray-failure detection: active probes
//!   fused with passive per-request evidence (EWMA error rate + latency
//!   quantile vs the peer median) into a flap-damped `Quarantined` verdict
//!   with cooloff-gated canary re-admission.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod dns;
pub mod graydetect;
pub mod probe;
pub mod topology;

pub use dns::{CachingResolver, DnsView};
pub use graydetect::{GrayDetector, GrayPolicy, GrayVerdict};

//! # canal-mesh
//!
//! The core of the reproduction: the service-mesh L7 engine and the three
//! data-plane architectures the paper evaluates against each other.
//!
//! * [`costs`] — the calibrated cost model. Every per-step constant lives
//!   here, with the paper figure it was calibrated against.
//! * [`l7`] — the L7 engine every architecture shares: real HTTP parsing,
//!   route control, weighted traffic splitting / canary / A-B, authorization
//!   and rate limiting.
//! * [`authz`] — zero-trust authorization policies, evaluated through the
//!   compiled `canal-policy` match tables (one enforcement point).
//! * [`l4policy`] — the node-side L4 policy filter: fast allow/deny on
//!   flow context, deferring L7-predicated rules to the gateway.
//! * Rate limiting reuses [`canal_net::ratelimit::TokenBucket`] (shared with
//!   the gateway's §6.2 throttling).
//! * [`path`] — the request-path executor: a request is a sequence of
//!   [`path::Step`]s over named CPU stages; queueing delay and CPU
//!   utilization come from `canal_sim::CpuServer` integration, so the
//!   latency knees of Figs. 2/11 *emerge* rather than being asserted.
//! * [`arch`] — [`arch::Mesh`]: the Sidecar (Istio-like), Ambient-like,
//!   Canal and no-mesh data planes, each a private placement table (which
//!   stage runs each hop, where spans are recorded, the testbed cores) that
//!   one walker prices into step plans, plus each fleet's background cores
//!   (for resource accounting).
//! * [`resources`] — the per-pod sidecar resource model behind Table 1 and
//!   Fig. 3.
//! * [`observability`] — the §4.1.1 split: L4 per-pod labeling at the
//!   on-node proxy, rich L7 logs at the gateway (trace assembly lives in
//!   `canal-telemetry`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod arch;
pub mod authz;
pub mod costs;
pub mod l4policy;
pub mod l7;
pub mod observability;
pub mod path;
pub mod resources;

pub use authz::{AuthzPolicy, AuthzRule};
pub use costs::CostModel;
pub use l4policy::L4Filter;
pub use l7::{L7Engine, L7Outcome};
pub use path::PathExecutor;

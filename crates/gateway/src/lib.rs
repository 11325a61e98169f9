//! # canal-gateway
//!
//! The centralized multi-tenant mesh gateway (§4.2–§4.4, §6.1–§6.2):
//!
//! * [`sharding`] — shuffle sharding: every service gets a near-unique
//!   combination of backends so no single failure pattern takes out two
//!   services together (Fig. 8, Fig. 19).
//! * [`redirector`] — the Beamer-style disaggregated load balancer: ECMP in
//!   front, per-service fixed-size bucket tables with priority replica
//!   chains (longer than Beamer's 2, §4.4) keeping established sessions on
//!   their replicas across scale events (Fig. 26).
//! * [`tunnel`] — session aggregation over VXLAN: many sessions ride few
//!   tunnels, spread across replica cores by outer source port (Fig. 9).
//! * [`health`] — the §6.1 multi-level health-check aggregation
//!   (service → core → replica levels, Tables 6/7).
//! * [`failure`] — hierarchical failure recovery: replica → backend →
//!   AZ (Fig. 8), with availability queries.
//! * [`resilience`] — the resilient request path: per-request deadlines,
//!   capped exponential backoff with deterministic jitter, hedged retries,
//!   per-backend outlier ejection, and DNS-failover degradation — the
//!   datapath half of the Fig. 8 recovery story.
//! * [`overload`] — proactive overload control in front of the dispatch
//!   path: per-tenant deficit-weighted fair queues with slot/byte caps,
//!   CoDel shedding keyed on queue sojourn, per-client retry-budget
//!   admission, and brownout of optional L7 work — the defense the sandbox
//!   (reactive, post-detection) composes with.
//! * [`sandbox`] — exception handling: lossy/lossless sandbox migration and
//!   redirector-level throttling (§6.2).
//! * [`drain`] — graceful gateway drain over the redirector's bucket
//!   tables: `Draining` stops new sessions at once, established sessions
//!   daisy-chain to their owner until they close, and a deadline bounds the
//!   window — planned failover loses zero established sessions.
//! * [`failstatic`] — the fail-static contract every distributed plane
//!   commits through: one generic `{running, staged}` slot that stages a
//!   push, checks it in the order fence, version, content, and only then
//!   swaps it in atomically; any refusal is a NACK upstream and the gateway
//!   keeps serving its last committed state (§2.2's bad-config outage
//!   vector). The three planes below supply only their content check:
//! * [`config`] — routes: unknown service, empty backend set, duplicate
//!   route.
//! * [`policy`] — tenant network policy: the content check is compilation
//!   of the [`canal_policy::PolicySpec`], so the enforced spec and its
//!   compiled tables never diverge.
//! * [`certs`] — trust bundles: mismatched tenant, bad or regressed CA
//!   generation, clock-skewed expiry; plus the typed bridge from handshake
//!   [`canal_crypto::MtlsError`]s into the resilience layer.
//! * [`gateway`] — the assembled gateway: service placement, per-backend
//!   CPU/session accounting, request dispatch, and the water-level signals
//!   the control plane consumes.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod certs;
pub mod config;
pub mod drain;
pub mod failstatic;
pub mod failure;
pub mod gateway;
pub mod health;
pub mod overload;
pub mod policy;
pub mod redirector;
pub mod resilience;
pub mod sandbox;
pub mod sharding;
pub mod tunnel;

pub use certs::{ActiveCertBundle, BundleRejection, CertBundleSpec, CertFault};
pub use config::{ActiveConfig, ConfigRejection, ConfigSpec, RouteSpec};
pub use drain::{DrainError, DrainPhase, DrainReject, GatewayDrain};
pub use failstatic::{FailStatic, Plane, Rejection};
pub use failure::{FailureDomain, PlacementView, UnknownDomain};
pub use gateway::{BackendId, Gateway, GatewayConfig, ReplicaId};
pub use health::HealthCheckPlan;
pub use overload::{
    AttemptKind, BrownoutController, BrownoutLevel, ClientId, CoDel, OverloadConfig,
    OverloadControl, OverloadSignals, RetryBudget, TelemetrySink,
};
pub use policy::ActivePolicy;
pub use redirector::{BucketTable, DispatchDecision};
pub use resilience::{
    AttemptError, DispatchCounters, DispatchOutcome, OutlierDetector, ResilienceConfig,
    ResilienceStats, ResilientDispatcher,
};
pub use sandbox::{MigrationKind, Sandbox};
pub use sharding::ShuffleShardPlanner;
pub use tunnel::{SessionAggregator, TunnelConfig};

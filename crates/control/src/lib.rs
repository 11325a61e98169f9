//! # canal-control
//!
//! The control plane of the reproduction:
//!
//! * [`configure`] — configuration building and pushing: the O(N²)
//!   southbound blow-up of per-pod sidecars vs per-node/per-service proxies
//!   vs Canal's single centralized gateway (Figs. 4/14/15, §2.2), plus the
//!   update-frequency model behind Table 2.
//! * [`monitor`] — multi-indicator monitoring and anomaly classification:
//!   backend/service/tenant alerts and the §6.2 decision rules (scale vs
//!   lossy/lossless sandbox migration vs throttling).
//! * [`rca`] — root-cause analysis (§4.3): trend-correlating top services
//!   against a backend's water level, with the multi-backend intersection
//!   speculation and its fallback.
//! * [`scaling`] — precise scaling: the `Reuse` / `New` strategies, their
//!   completion-time models (P50 ≈ 55 s vs ≈ 17 min, Fig. 17 / Table 4),
//!   and the scaling ledger behind Fig. 18.
//! * [`inphase`] — traffic-pattern monitoring and the §6.3 in-phase service
//!   migration planner (HWHM sampling, complementary-pattern target
//!   selection).
//! * [`proofing`] — the §6.4 full-mesh L7 prober: diverse app instances in
//!   every AZ, a (src AZ × dst AZ × protocol) matrix, and the
//!   innocence-or-infra-fault verdict for tenant complaints.
//! * [`region`] — the assembled control loop on the discrete-event engine:
//!   workloads → gateway → monitor → decisions, with scaling capacity that
//!   only lands at its completion instant.
//! * [`versioned`] — xDS-style versioned config distribution: debounced
//!   update coalescing, per-target ack/nack tracking, fleet convergence.
//! * [`rollout`] — safe config rollout (§2.2's outage vector, defended):
//!   validate → canary wave → health-gated exponential promotion →
//!   converged, with automatic rollback to last-known-good on NACK,
//!   health regression, or ack timeout, and a per-version audit log.
//! * [`certrotation`] — certificate rotation waves: expiry-driven (and
//!   compromise-forced) bundle cutting, distributed through [`rollout`] so
//!   a poisoned bundle NACKs at the canary and rolls the fleet back to the
//!   last converged trust state while gateways serve fail-static.
//! * [`journal`] — the write-ahead rollout journal (DESIGN.md §15):
//!   every begin / wave-cut / ack / nack / rollback / converge intent is
//!   journaled before the southbound push, so a crashed controller's
//!   replacement can replay the journal, reconcile against the fleet, and
//!   resume or abort the in-flight wave under a fresh fencing epoch.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod certrotation;
pub mod configure;
pub mod inphase;
pub mod journal;
pub mod monitor;
pub mod proofing;
pub mod rca;
pub mod region;
pub mod rollout;
pub mod versioned;
pub mod scaling;

pub use certrotation::{CertRotationController, RotationConfig, RotationRecord};
pub use configure::{ConfigPlane, PushReport};
pub use inphase::{InPhasePlanner, MigrationPlan};
pub use monitor::{
    AlertKind, Classification, MonitorDecision, OverloadAssessment, WaterLevelMonitor,
};
pub use journal::{
    Journal, JournalRecord, PendingRollback, ReplayRollout, ReplayState, RolloutKind,
    JOURNAL_RETAIN_CAP,
};
pub use proofing::{FaultVerdict, FullMeshProber, ProbeProtocol};
pub use rca::{candidate_causes, CandidateCause, RootCauseAnalyzer, RcaVerdict};
pub use region::{RegionEvent, RegionReport, RegionSimulation};
pub use rollout::{
    Delivery, HealthSample, RollbackReason, RolloutAction, RolloutConfig, RolloutController,
    RolloutOutcome, RolloutPhase, RolloutResult,
};
pub use scaling::{ScalingEngine, ScalingKind, ScalingRecord};
pub use versioned::VersionedConfigStore;

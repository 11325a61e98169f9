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
//! * [`rca`] — hop-level localization from assembled traces: the
//!   span-evidence and trend-correlation localizers the `trace` experiment
//!   compares.
//! * [`scaling`] — precise scaling: the `Reuse` / `New` strategies and
//!   their completion-time models (P50 ≈ 55 s vs ≈ 17 min, Fig. 17 /
//!   Table 4).
//! * [`versioned`] — the ack ledger of xDS-style versioned config
//!   distribution: the head version, per-target ack/nack state, fleet
//!   convergence.
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
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod certrotation;
pub mod configure;
pub mod journal;
pub mod monitor;
pub mod rca;
pub mod rollout;
pub mod versioned;
pub mod scaling;

pub use certrotation::{CertRotationController, RotationConfig};
pub use configure::ConfigPlane;
pub use monitor::{AlertKind, OverloadAssessment, WaterLevelMonitor};
pub use journal::RolloutKind;
pub use rollout::{
    Delivery, HealthSample, RollbackReason, RolloutAction, RolloutConfig, RolloutController,
    RolloutOutcome, RolloutResult,
};

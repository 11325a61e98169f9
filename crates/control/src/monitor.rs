//! Multi-indicator monitoring and anomaly-triggered rapid intervention
//! (§4.2 "Anomaly detection-triggered rapid intervention", §6.2).
//!
//! The monitor consumes the gateway's per-window [`canal_gateway::gateway::WaterLevel`]
//! reports and classifies breaches:
//!
//! * RPS and water level rising together, history-consistent → **normal
//!   growth** → scale (Reuse/New).
//! * TCP sessions surging *without* a matching RPS rise → **attack
//!   signature** (§6.2 Case #1) → lossy sandbox migration.
//! * Slow unusual growth triggering repeated auto-scaling (Case #2) →
//!   lossless migration after user confirmation.
//! * Tenant cluster near 100% under inbound flood (Case #3) → throttle at
//!   the gateway.

use canal_gateway::gateway::{BackendId, WaterLevel};
use canal_gateway::overload::{BrownoutLevel, OverloadSignals};
use canal_net::GlobalServiceId;
use canal_sim::{Fold, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Alert levels of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A backend's water level breached the threshold.
    Backend(BackendId),
    /// A metered service is running out of its purchased resources.
    Service(GlobalServiceId),
    /// The tenant's own cluster is saturating.
    Tenant(canal_net::TenantId),
    /// The gateway's overload pipeline reported pressure.
    Overload,
    /// A config rollout entered flight or rolled back — any anomaly in the
    /// same window has "config change" as a suspect dimension (§2.2).
    ConfigRollout,
    /// The network-policy plane denied an anomalous fraction of this
    /// window's traffic — a deny spike is how a wrongly-scoped (but
    /// semantically valid) policy push announces itself, and it must feed
    /// the rollout health gate before the push leaves the canary.
    PolicyDeny,
}

/// What the gateway's overload telemetry says about the pressure state.
///
/// Water levels are *utilization* signals — they saturate at 1.0 exactly
/// when it is too late to scale gracefully. Overload signals (queue depth,
/// sojourn p99, brownout, shed rate) move *before* utilization pins, which
/// is what lets precise scaling act pre-saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadAssessment {
    /// Queues drain promptly, nothing shed, no brownout.
    Calm,
    /// Pressure is building — sojourn over the SLO or brownout engaged —
    /// but no request has been dropped yet. Scale now.
    PreSaturation,
    /// Requests are being shed (caps or CoDel): the gateway is saturated;
    /// scale and consider sandboxing the top offender.
    Shedding,
}

/// What the monitor believes is happening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Organic traffic increase.
    NormalGrowth,
    /// Session surge without RPS surge — attack signature.
    SessionAttack,
    /// Sustained unusual growth pattern (vs history).
    UnusualGrowth,
    /// Cannot determine.
    Undetermined,
}

/// The §6.2 decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorDecision {
    /// Scale the pinpointed service (precise scaling, §4.3).
    Scale(GlobalServiceId),
    /// Migrate to the sandbox, resetting sessions.
    MigrateLossy(GlobalServiceId),
    /// Migrate to the sandbox, draining existing sessions.
    MigrateLossless(GlobalServiceId),
    /// Throttle the service at the redirector.
    Throttle(GlobalServiceId),
    /// Keep watching.
    Observe,
}

#[derive(Debug, Default, Clone)]
struct BackendHistory {
    utilization: VecDeque<f64>,
    sessions: VecDeque<f64>,
    rps: VecDeque<f64>,
}

const HISTORY_CAP: usize = 24;

/// How far a window's denied fraction must rise above the gateway's
/// measured baseline fraction before the window counts as spiking.
pub(crate) const POLICY_DENY_SPIKE: f64 = 0.2;

/// Consecutive spiking windows of one gateway before
/// [`WaterLevelMonitor::ingest_policy`] raises [`AlertKind::PolicyDeny`].
/// One window of rare background denies can bunch over the line. Two in a
/// row almost never do, while a policy that denies a whole tenant spikes
/// every window.
pub(crate) const POLICY_SPIKE_WINDOWS: u32 = 2;

/// One gateway's deny watch. The `idle_*` counts are the decisions and
/// denies of its non-spiking windows ingested while no rollout was in
/// flight: their ratio is the baseline a rollout's windows are measured
/// against. `streak` counts its consecutive spiking windows.
#[derive(Debug, Default, Clone, Copy)]
struct DenyWatch {
    idle_offered: u64,
    idle_denied: u64,
    streak: u32,
}

impl DenyWatch {
    fn baseline(&self) -> f64 {
        if self.idle_offered == 0 {
            0.0
        } else {
            self.idle_denied as f64 / self.idle_offered as f64
        }
    }
}

/// Water-level monitor with per-backend history.
#[derive(Debug, Default)]
pub struct WaterLevelMonitor {
    history: BTreeMap<BackendId, BackendHistory>,
    alerts: Vec<(SimTime, AlertKind)>,
    rollout_in_flight: bool,
    rollbacks_seen: u64,
    policy: BTreeMap<u32, DenyWatch>,
    policy_denials: u64,
}

impl WaterLevelMonitor {
    /// Fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_bounded(q: &mut VecDeque<f64>, v: f64) {
        q.push_back(v);
        while q.len() > HISTORY_CAP {
            q.pop_front();
        }
    }

    /// Ingest one monitoring window. Returns decisions (one per alerting
    /// backend). `threshold` is the CPU water-level alert line.
    pub fn ingest(
        &mut self,
        now: SimTime,
        levels: &[WaterLevel],
        threshold: f64,
    ) -> Vec<(BackendId, Classification, MonitorDecision)> {
        let mut out = Vec::new();
        for level in levels {
            let h = self.history.entry(level.backend).or_default();
            let total_rps: u64 = level.top_services.iter().map(|&(_, n)| n).sum();
            let prev_rps = h.rps.back().copied().unwrap_or(0.0);
            let prev_sessions = h.sessions.back().copied().unwrap_or(0.0);
            // Baseline: the median of recorded history (robust to the spike
            // itself, so a sustained surge keeps classifying as growth until
            // history catches up — the paper keeps scaling while hot).
            let baseline_rps = {
                let mut v: Vec<f64> = h.rps.iter().copied().collect();
                if v.is_empty() {
                    0.0
                } else {
                    v.sort_by(|a, b| a.total_cmp(b));
                    v[v.len() / 2]
                }
            };
            Self::push_bounded(&mut h.utilization, level.utilization);
            Self::push_bounded(&mut h.sessions, level.session_occupancy);
            Self::push_bounded(&mut h.rps, total_rps as f64);

            if level.utilization < threshold && level.session_occupancy < 0.8 {
                continue;
            }
            self.alerts.push((now, AlertKind::Backend(level.backend)));
            let top = level.top_services.first().map(|&(s, _)| s);

            // Attack signature: session occupancy jumped while RPS did not
            // (§6.2 Case #1: "#TCP sessions surged without a corresponding
            // increase in RPS").
            let session_jump = level.session_occupancy > prev_sessions + 0.3;
            let rps_flat = total_rps as f64 <= prev_rps * 1.3 + 10.0;
            let classification = if session_jump && rps_flat {
                Classification::SessionAttack
            } else if total_rps as f64 > baseline_rps * 1.5 + 10.0 {
                Classification::NormalGrowth
            } else if h.utilization.len() >= 4
                && h.utilization.iter().rev().take(4).all(|&u| u >= threshold * 0.9)
            {
                Classification::UnusualGrowth
            } else {
                Classification::Undetermined
            };

            let decision = match (classification, top) {
                (Classification::SessionAttack, Some(s)) => MonitorDecision::MigrateLossy(s),
                (Classification::NormalGrowth, Some(s)) => MonitorDecision::Scale(s),
                (Classification::UnusualGrowth, Some(s)) => MonitorDecision::MigrateLossless(s),
                (Classification::Undetermined, Some(s)) => MonitorDecision::Throttle(s),
                (_, None) => MonitorDecision::Observe,
            };
            out.push((level.backend, classification, decision));
        }
        out
    }

    /// Ingest one overload telemetry window from the gateway's pipeline.
    /// `sojourn_slo` is the queueing-delay budget; a p99 beyond it counts
    /// as pressure even before anything is shed. Alerting windows are
    /// recorded under [`AlertKind::Overload`].
    pub fn ingest_overload(
        &mut self,
        now: SimTime,
        sig: &OverloadSignals,
        sojourn_slo: SimDuration,
    ) -> OverloadAssessment {
        let assessment = if sig.shed_caps + sig.shed_codel > 0 {
            OverloadAssessment::Shedding
        } else if sig.brownout > BrownoutLevel::Normal
            || (sig.offered > 0 && sig.sojourn_p99 > sojourn_slo)
        {
            OverloadAssessment::PreSaturation
        } else {
            OverloadAssessment::Calm
        };
        if assessment != OverloadAssessment::Calm {
            self.alerts.push((now, AlertKind::Overload));
        }
        assessment
    }

    /// Ingest the rollout controller's state for this window
    /// (`RolloutController::in_flight()` / `rollbacks()`). Raises a
    /// [`AlertKind::ConfigRollout`] alert when a rollout *starts* and when
    /// the lifetime rollback count grows, so scaling and RCA windows that
    /// overlap a config change see it as a suspect dimension instead of
    /// mis-attributing the anomaly to traffic.
    pub fn ingest_rollout(&mut self, now: SimTime, in_flight: bool, rollbacks: u64) {
        if in_flight && !self.rollout_in_flight {
            self.alerts.push((now, AlertKind::ConfigRollout));
        }
        if rollbacks > self.rollbacks_seen {
            self.alerts.push((now, AlertKind::ConfigRollout));
            self.rollbacks_seen = rollbacks;
        }
        self.rollout_in_flight = in_flight;
    }

    /// Ingest one window of one gateway's policy-plane decisions: how many
    /// flows/requests its compiled policy evaluated (`offered`) and how many
    /// it denied. A window spikes when its denied fraction exceeds the
    /// gateway's baseline by more than [`POLICY_DENY_SPIKE`]. The baseline is
    /// measured, like the p99 the rollout gate compares against: the deny
    /// fraction of the gateway's calm windows while no rollout was in flight
    /// (see [`ingest_rollout`](Self::ingest_rollout)), zero before it has
    /// any. The [`POLICY_SPIKE_WINDOWS`]-th spiking window in a row raises
    /// one [`AlertKind::PolicyDeny`]; the streak must break before that
    /// gateway can alert again.
    pub fn ingest_policy(&mut self, now: SimTime, gateway: u32, offered: u64, denied: u64) {
        self.policy_denials += denied;
        let watch = self.policy.entry(gateway).or_default();
        let spiking = offered > 0
            && denied as f64 > offered as f64 * (watch.baseline() + POLICY_DENY_SPIKE);
        watch.streak = if spiking { watch.streak + 1 } else { 0 };
        if watch.streak == POLICY_SPIKE_WINDOWS {
            self.alerts.push((now, AlertKind::PolicyDeny));
        }
        if !spiking && !self.rollout_in_flight {
            watch.idle_offered += offered;
            watch.idle_denied += denied;
        }
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[(SimTime, AlertKind)] {
        &self.alerts
    }

    /// Fold the monitor state into a digest: every backend's `history`
    /// window, the `alerts` log, the rollout view (`rollout_in_flight`,
    /// `rollbacks_seen`), every gateway's `policy` deny watch and the
    /// `policy_denials` total.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { history, alerts, rollout_in_flight, rollbacks_seen, policy, policy_denials } = self;
        f.write_u64(history.len() as u64);
        for (&backend, h) in history {
            f.write_u64(backend as u64);
            for q in [&h.utilization, &h.sessions, &h.rps] {
                f.write_u64(q.len() as u64);
                for &v in q {
                    f.write_f64(v);
                }
            }
        }
        f.write_u64(alerts.len() as u64);
        for &(t, kind) in alerts {
            f.write_u64(t.as_nanos());
            match kind {
                AlertKind::Backend(b) => f.write_u64(1).write_u64(b as u64),
                AlertKind::Service(s) => f.write_u64(2).write_u64(s.0),
                AlertKind::Tenant(tenant) => f.write_u64(3).write_u64(tenant.0 as u64),
                AlertKind::Overload => f.write_u64(4),
                AlertKind::ConfigRollout => f.write_u64(5),
                AlertKind::PolicyDeny => f.write_u64(6),
            };
        }
        f.write_u64(*rollout_in_flight as u64)
            .count("rollbacks_seen", *rollbacks_seen)
            .write_u64(policy.len() as u64);
        for (&gateway, w) in policy {
            f.write_u64(u64::from(gateway))
                .write_u64(w.idle_offered)
                .write_u64(w.idle_denied)
                .write_u64(u64::from(w.streak));
        }
        f.count("policy_denials", *policy_denials);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    fn level(
        backend: BackendId,
        util: f64,
        sessions: f64,
        top: &[(GlobalServiceId, u64)],
    ) -> WaterLevel {
        WaterLevel {
            backend,
            utilization: util,
            session_occupancy: sessions,
            top_services: top.to_vec(),
        }
    }

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    #[test]
    fn quiet_backend_produces_no_decision() {
        let mut m = WaterLevelMonitor::new();
        let out = m.ingest(T(0), &[level(1, 0.3, 0.1, &[(svc(1), 100)])], 0.7);
        assert!(out.is_empty());
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn rps_surge_classifies_as_growth_and_scales() {
        let mut m = WaterLevelMonitor::new();
        m.ingest(T(0), &[level(1, 0.4, 0.1, &[(svc(1), 100)])], 0.7);
        let out = m.ingest(T(60), &[level(1, 0.85, 0.15, &[(svc(1), 5000)])], 0.7);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, Classification::NormalGrowth);
        assert_eq!(out[0].2, MonitorDecision::Scale(svc(1)));
    }

    #[test]
    fn session_surge_without_rps_is_attack() {
        // §6.2 Case #1: 80% of backend sessions saturated, RPS flat.
        let mut m = WaterLevelMonitor::new();
        m.ingest(T(0), &[level(1, 0.4, 0.2, &[(svc(7), 1000)])], 0.7);
        let out = m.ingest(T(60), &[level(1, 0.75, 0.8, &[(svc(7), 1000)])], 0.7);
        assert_eq!(out[0].1, Classification::SessionAttack);
        assert_eq!(out[0].2, MonitorDecision::MigrateLossy(svc(7)));
    }

    #[test]
    fn sustained_high_water_without_rps_change_goes_lossless() {
        let mut m = WaterLevelMonitor::new();
        // Slow creep: high utilization for 4+ windows, RPS flat.
        for i in 0..5 {
            m.ingest(
                T(i * 60),
                &[level(1, 0.72 + i as f64 * 0.01, 0.2, &[(svc(2), 1000)])],
                0.7,
            );
        }
        let out = m.ingest(T(360), &[level(1, 0.78, 0.2, &[(svc(2), 1005)])], 0.7);
        assert_eq!(out[0].1, Classification::UnusualGrowth);
        assert_eq!(out[0].2, MonitorDecision::MigrateLossless(svc(2)));
    }

    #[test]
    fn session_alert_fires_even_below_cpu_threshold() {
        let mut m = WaterLevelMonitor::new();
        m.ingest(T(0), &[level(1, 0.2, 0.1, &[(svc(1), 500)])], 0.7);
        // CPU fine (30%), sessions at 85% — must still alert.
        let out = m.ingest(T(60), &[level(1, 0.3, 0.85, &[(svc(1), 520)])], 0.7);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, Classification::SessionAttack);
    }

    #[test]
    fn alerts_are_recorded_per_backend() {
        let mut m = WaterLevelMonitor::new();
        m.ingest(
            T(0),
            &[
                level(1, 0.9, 0.1, &[(svc(1), 100)]),
                level(2, 0.1, 0.1, &[(svc(2), 100)]),
            ],
            0.7,
        );
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].1, AlertKind::Backend(1));
    }

    #[test]
    fn empty_top_services_just_observes() {
        let mut m = WaterLevelMonitor::new();
        let out = m.ingest(T(0), &[level(1, 0.95, 0.1, &[])], 0.7);
        assert_eq!(out[0].2, MonitorDecision::Observe);
    }

    const SLO: SimDuration = SimDuration::from_millis(2);

    #[test]
    fn overload_calm_window_raises_nothing() {
        let mut m = WaterLevelMonitor::new();
        let sig = OverloadSignals {
            offered: 1000,
            started: 1000,
            sojourn_p99: SimDuration::from_micros(100),
            ..OverloadSignals::default()
        };
        assert_eq!(m.ingest_overload(T(0), &sig, SLO), OverloadAssessment::Calm);
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn overload_brownout_or_sojourn_flags_pre_saturation() {
        let mut m = WaterLevelMonitor::new();
        let browned = OverloadSignals {
            offered: 1000,
            started: 1000,
            brownout: BrownoutLevel::NoObservability,
            ..OverloadSignals::default()
        };
        assert_eq!(
            m.ingest_overload(T(0), &browned, SLO),
            OverloadAssessment::PreSaturation
        );
        let slow = OverloadSignals {
            offered: 1000,
            started: 1000,
            sojourn_p99: SimDuration::from_millis(5),
            ..OverloadSignals::default()
        };
        assert_eq!(
            m.ingest_overload(T(60), &slow, SLO),
            OverloadAssessment::PreSaturation
        );
        assert_eq!(m.alerts().len(), 2);
        assert!(m.alerts().iter().all(|&(_, k)| k == AlertKind::Overload));
    }

    #[test]
    fn overload_sheds_classify_as_shedding() {
        let mut m = WaterLevelMonitor::new();
        let sig = OverloadSignals {
            offered: 1000,
            started: 900,
            shed_codel: 60,
            shed_caps: 40,
            shed_rate: 0.1,
            sojourn_p99: SimDuration::from_millis(8),
            brownout: BrownoutLevel::NoCanary,
            ..OverloadSignals::default()
        };
        assert_eq!(
            m.ingest_overload(T(0), &sig, SLO),
            OverloadAssessment::Shedding
        );
    }

    #[test]
    fn rollout_state_surfaces_as_suspect_dimension() {
        let mut m = WaterLevelMonitor::new();
        assert!(!m.rollout_in_flight);
        // Quiet windows: nothing.
        m.ingest_rollout(T(0), false, 0);
        assert!(m.alerts().is_empty());
        // A rollout entering flight alerts once, not every window.
        m.ingest_rollout(T(10), true, 0);
        m.ingest_rollout(T(20), true, 0);
        assert!(m.rollout_in_flight);
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].1, AlertKind::ConfigRollout);
        // A rollback alerts again even as the rollout leaves flight.
        m.ingest_rollout(T(30), false, 1);
        assert!(!m.rollout_in_flight);
        assert_eq!(m.rollbacks_seen, 1);
        assert_eq!(m.alerts().len(), 2);
        // The next rollout alerts afresh.
        m.ingest_rollout(T(40), true, 1);
        assert_eq!(m.alerts().len(), 3);
    }

    #[test]
    fn policy_deny_spike_needs_two_windows_over_the_baseline() {
        let mut m = WaterLevelMonitor::new();
        // Calm windows outside a rollout: a few denials are normal
        // zero-trust noise, and they become gateway 1's baseline.
        m.ingest_policy(T(0), 1, 100, 5);
        assert!(m.alerts().is_empty());
        // One window where background denies bunch over the line is not an
        // alert on its own.
        m.ingest_policy(T(5), 1, 16, 5);
        assert!(m.alerts().is_empty());
        m.ingest_policy(T(6), 1, 100, 5);
        // A sustained spike alerts once, not every window it persists.
        m.ingest_policy(T(10), 1, 100, 40);
        assert!(m.alerts().is_empty());
        m.ingest_policy(T(20), 1, 100, 55);
        m.ingest_policy(T(25), 1, 100, 60);
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].1, AlertKind::PolicyDeny);
        // The streak breaks, then a new one: a fresh alert.
        m.ingest_policy(T(30), 1, 100, 2);
        m.ingest_policy(T(40), 1, 100, 90);
        m.ingest_policy(T(45), 1, 100, 90);
        assert_eq!(m.alerts().len(), 2);
        assert_eq!(m.policy_denials, 5 + 5 + 5 + 40 + 55 + 60 + 2 + 90 + 90);
        // An idle window (no offered traffic) is not a spike.
        m.ingest_policy(T(50), 1, 0, 0);
        assert_eq!(m.policy[&1].streak, 0);
        // Spiking windows never join the baseline.
        assert_eq!((m.policy[&1].idle_offered, m.policy[&1].idle_denied), (300, 12));
    }

    #[test]
    fn each_gateway_keeps_its_own_streak() {
        let mut m = WaterLevelMonitor::new();
        // Gateway 2's calm windows between gateway 1's spiking ones do not
        // break gateway 1's streak.
        m.ingest_policy(T(0), 1, 16, 10);
        m.ingest_policy(T(1), 2, 16, 0);
        m.ingest_policy(T(2), 1, 16, 10);
        assert_eq!(m.alerts().len(), 1);
    }

    #[test]
    fn a_rollout_that_legitimately_denies_more_stays_under_the_line() {
        let mut m = WaterLevelMonitor::new();
        // Before the rollout the gateway denies 15% of its traffic.
        for t in 0..4 {
            m.ingest_policy(T(t), 3, 100, 15);
        }
        // The new policy denies 30%: over the line as a raw fraction, 15
        // points over the measured baseline, which is under it.
        m.ingest_rollout(T(10), true, 0);
        for t in 11..20 {
            m.ingest_policy(T(t), 3, 100, 30);
        }
        assert!(!m.alerts().iter().any(|&(_, k)| k == AlertKind::PolicyDeny));
        // Windows ingested while the rollout is in flight do not move the
        // baseline.
        assert_eq!((m.policy[&3].idle_offered, m.policy[&3].idle_denied), (400, 60));
        // A gateway with no baseline measures against zero: the same windows
        // spike there.
        m.ingest_policy(T(20), 4, 100, 30);
        m.ingest_policy(T(21), 4, 100, 30);
        assert!(m.alerts().iter().any(|&(_, k)| k == AlertKind::PolicyDeny));
    }
}

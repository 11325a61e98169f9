//! Config-rollout blast-radius experiment: one poisoned config change,
//! three distribution strategies.
//!
//! §2.2 names configuration as the mesh's primary outage vector. This
//! experiment scripts a *single* bad config change (a route table whose
//! entry points at a service no data plane knows — `at 20s fail
//! config-poison` in the shared [`FaultPlan`] DSL) and pushes it through
//! three arms under identical client arrivals:
//!
//! * **istio-full-push** — the change reaches every sidecar in one
//!   southbound push and each sidecar applies it blindly. Detection is
//!   human-scale (dashboards, pages): the whole fleet serves errors until
//!   an operator notices and re-pushes the old config.
//! * **ambient-waypoint** — per-waypoint sequential pushes, still applied
//!   blindly. The operator halts the push mid-flight, so exposure is
//!   partial but every already-pushed waypoint burned error budget.
//! * **canal** — the [`RolloutController`] canaries the change to a small
//!   wave of gateways whose [`ActiveConfig`] *validates before committing*:
//!   the poisoned spec is NACKed, serving continues from the running config
//!   (fail-static), and the controller rolls back automatically. The bad
//!   version is never committed anywhere.
//!
//! The canal arm additionally exercises the rest of the safe-rollout
//! machinery on the same timeline: a healthy rollout that converges in
//! exponential waves, a push attempted inside a scripted `config-push`
//! blackout (ack-timeout rollback; gateways keep serving — availability
//! stays 100%), and a *valid but degrading* change the health gate catches
//! during canary bake (blast radius bounded by the canary wave).
//!
//! Measured per arm: the fraction of the fleet that ever ran the bad
//! config, errors and 99.9%-SLO budget burned, availability, and
//! time-to-rollback. Everything is seeded; double runs are bit-identical
//! ([`BlastOutcome::digest`], held by `crate::scenario::drive`).
//!
//! [`RolloutController`]: canal_control::RolloutController
//! [`ActiveConfig`]: canal_gateway::ActiveConfig
//! [`FaultPlan`]: canal_sim::faults::FaultPlan

use crate::experiments::southbound::{ArmOutcome, Blast, CanalArm, TickClock};
use canal_gateway::config::RoutePlane;
use crate::harness::{poisson_arrivals, Check, ExperimentReport};
use crate::scenario::{checks, fields, violated, Claim, Json, Scenario};
use canal_control::configure::ConfigPlane;
use canal_control::{
    AlertKind, HealthSample, RollbackReason, RolloutConfig, RolloutController, RolloutOutcome,
    RolloutResult, WaterLevelMonitor,
};
use canal_gateway::{ConfigSpec, RouteSpec};
use canal_mesh::arch::{Architecture, ClusterShape};
use canal_net::GlobalServiceId;
use canal_sim::faults::{FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::{num, pct, Table};
use canal_sim::{Digest, Fold, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

/// The one service every gateway has placed.
const SVC: GlobalServiceId = GlobalServiceId(7);
/// The service the poisoned route table points at — placed nowhere.
const BAD_SVC: GlobalServiceId = GlobalServiceId(404);
/// Probability an arrival served under the degrading config errors.
const DEGRADE_FAIL: f64 = 0.9;
/// Steady tail latency fed to the health gate (content never changes it
/// here; the gate trips on error rate).
const STEADY_P99: SimDuration = SimDuration::from_millis(5);

/// Rollout run parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RolloutParams {
    /// Time compression: scripted fault times, detection delays, bake and
    /// ack windows are all multiplied by this.
    pub(crate) time_scale: f64,
    /// Offered load (requests/s).
    pub(crate) rps: f64,
    /// Data-plane fleet size (gateways / waypoints / sidecar'd pods).
    pub(crate) fleet: usize,
}

impl RolloutParams {
    /// The full run: a 90 s timeline, 24 proxies, 200 rps.
    pub(crate) fn full() -> Self {
        RolloutParams {
            time_scale: 1.0,
            rps: 200.0,
            fleet: 24,
        }
    }

    /// CI smoke mode: the same scenario compressed 4× on a smaller fleet.
    pub(crate) fn fast() -> Self {
        RolloutParams {
            time_scale: 0.25,
            rps: 120.0,
            fleet: 12,
        }
    }

    /// The scaled clock: a 90 s timeline, the controller ticking every
    /// 500 ms of it.
    fn clock(&self) -> TickClock {
        TickClock::new(self.time_scale, SimDuration::from_millis(500), SimDuration::from_secs(90))
    }

    /// The canal arm's wave sizing and gates (scaled).
    fn rollout_cfg(&self) -> RolloutConfig {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 4,
            bake_time: SimDuration::from_secs(5).scale(self.time_scale),
            ack_timeout: SimDuration::from_secs(4).scale(self.time_scale),
            max_error_delta: 0.01,
            max_p99_inflation: 1.5,
            ..RolloutConfig::default()
        }
    }
}

/// The scripted scenario, shared ground truth for all three arms. The
/// `config-poison` window covers the operator shipping the bad route table;
/// the `config-push` blackout covers a southbound channel outage a later
/// (valid) rollout runs into.
fn scripted_plan(clock: &TickClock) -> FaultPlan {
    clock.script(&[
        (20.0, "fail config-poison"),    // operator ships the bad route table
        (30.0, "recover config-poison"), // source fixed upstream
        (40.0, "fail config-push"),      // southbound channel outage
        (50.0, "recover config-push"),
    ])
}

/// One precomputed client arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    gw: usize,
    /// Pre-drawn verdict should this arrival land on a degrading config.
    fail_draw: bool,
}

/// One deterministic Poisson stream, spread uniformly over the fleet.
fn arrivals(seed: u64, params: &RolloutParams) -> Vec<Arrival> {
    let mut rng = SimRng::seed(seed ^ 0x0110_07CA_11A5_0B5E);
    poisson_arrivals(&mut rng, params.rps, params.clock().horizon().as_secs_f64(), |rng, at| Arrival {
        at,
        gw: rng.index(params.fleet),
        fail_draw: rng.chance(DEGRADE_FAIL),
    })
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub(crate) struct BlastOutcome {
    /// The poisoned change across the three arms, and canal's healthy
    /// rollout before it.
    pub(crate) blast: Blast,
    /// Gateways that committed the valid-but-degrading version before the
    /// health gate rolled it back (must be ≤ canary).
    pub(crate) degrade_exposed: usize,
    /// Errors burned by the degrading canary before rollback.
    pub(crate) degrade_errors: u64,
    /// Availability inside the `config-push` blackout window (fail-static:
    /// must be 100%).
    pub(crate) blocked_availability: f64,
    /// Whether the rollout begun inside the blackout ended in an
    /// ack-timeout rollback (it could not have converged).
    pub(crate) blocked_timeout_rollback: bool,
    /// `ConfigRollout` alerts the water-level monitor raised.
    pub(crate) rollout_alerts: u64,
    /// Southbound pushes dropped by the scripted blackout.
    pub(crate) dropped_pushes: u64,
    /// Whether every rollback the controller emitted targeted a version
    /// the fleet had actually converged on (or 0), never a poisoned or
    /// never-committed one.
    pub(crate) rollback_targets_good: bool,
    /// Controller + gateway state digest from the canal arm.
    pub(crate) canal_state_digest: u64,
    /// The canal controller's per-version audit log.
    pub(crate) audit: Vec<RolloutOutcome>,
}

impl BlastOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub(crate) fn digest(&self) -> u64 {
        let b = &self.blast;
        let mut d = Digest::new();
        for a in &b.arms {
            a.fold(&mut d);
        }
        d.write_u64(b.fleet as u64)
            .write_u64(b.canary_size as u64)
            .write_u64(b.nacks)
            .write_u64(b.rollbacks)
            .write_u64(self.degrade_exposed as u64)
            .write_u64(self.degrade_errors)
            .write_f64(self.blocked_availability)
            .write_u64(u64::from(self.blocked_timeout_rollback))
            .write_u64(u64::from(b.healthy_converged))
            .write_u64(b.healthy_waves as u64)
            .write_u64(b.healthy_exposed as u64)
            .write_u64(self.rollout_alerts)
            .write_u64(self.dropped_pushes)
            .write_u64(u64::from(self.rollback_targets_good))
            .write_u64(self.canal_state_digest);
        d.value()
    }

    /// The rollout report's checks on the outcome, with their clauses.
    fn claims(&self) -> Vec<Claim> {
        let b = &self.blast;
        let [canal, ambient, istio] = &b.arms;
        let mut claims = vec![
            b.poison_claim("version"),
            b.fail_static_claim(
                "fail-static serving keeps availability at 100%",
                "rejected pushes never degrade the data plane",
                &pct(canal.availability()),
            ),
            b.rollback_claim("NACK, ack-timeout and health-gate rollbacks, no operator"),
            Claim::new(
                "rollbacks restore only converged versions",
                "last-known-good is the last converged version, never a poisoned or never-committed one",
                &format!("all targets good: {}", self.rollback_targets_good),
                &[("every rollback restores a converged, unpoisoned version", self.rollback_targets_good)],
            ),
            Claim::new(
                "degrading change contained to the canary wave",
                "health gate trips during bake, before wave 2",
                &format!("{} of {} gateways (canary {})", self.degrade_exposed, b.fleet, b.canary_size),
                &[(
                    "the degrading change is contained to the canary wave",
                    (1..=b.canary_size).contains(&self.degrade_exposed),
                )],
            ),
            Claim::new(
                "blocked push fails static",
                "blackout window serves at 100%; stalled rollout times out and rolls back",
                &format!(
                    "{} availability, timeout rollback {}",
                    pct(self.blocked_availability),
                    self.blocked_timeout_rollback
                ),
                &[
                    ("the push blackout never degrades serving", self.blocked_availability == 1.0),
                    ("the rollout stalled by the blackout times out and rolls back", self.blocked_timeout_rollback),
                ],
            ),
            b.healthy_claim("healthy rollout converges in exponential waves"),
        ];
        claims.extend(b.blind_push_claims());
        claims.extend([
            Claim::new(
                "rollout surfaces as a monitor dimension",
                "ConfigRollout alerts on flight starts and rollbacks",
                &format!("{} alerts", self.rollout_alerts),
                &[("rollout flights and rollbacks raise at least four monitor alerts", self.rollout_alerts >= 4)],
            ),
            Claim::unreported(&[
                ("istio's exposed fleet serves errors", istio.errors > 0),
                ("ambient's partial exposure serves errors", ambient.errors > 0),
                ("canal rolls back in under a tenth of istio's operator time", canal.ttr_s < istio.ttr_s / 10.0),
                (
                    "availability ranks canal over ambient over istio",
                    canal.availability() > ambient.availability() && ambient.availability() > istio.availability(),
                ),
            ]),
        ]);
        claims
    }
}

/// The route table content for `version`: good unless the config source was
/// poisoned when the version was cut.
fn spec_for(version: u64, poisoned: bool) -> ConfigSpec {
    let route = if poisoned {
        RouteSpec {
            service: BAD_SVC,
            backends: vec![0],
        }
    } else {
        RouteSpec {
            service: SVC,
            backends: vec![0, 1],
        }
    };
    ConfigSpec { version, routes: [route].into_iter().collect() }
}

/// How the controller's audit log words one terminal result.
fn result_label(result: RolloutResult) -> String {
    match result {
        RolloutResult::Converged => "converged".to_string(),
        RolloutResult::FailedValidation => "failed validation".to_string(),
        RolloutResult::RolledBack(RollbackReason::Nack { target }) => {
            format!("rolled back (NACK from gw {target})")
        }
        RolloutResult::RolledBack(RollbackReason::HealthRegression) => {
            "rolled back (health regression)".to_string()
        }
        RolloutResult::RolledBack(RollbackReason::AckTimeout) => {
            "rolled back (ack timeout)".to_string()
        }
    }
}

/// Run the whole blast-radius scenario. Fully deterministic in `seed`. The
/// canal arm is driven tick by tick: controller, fail-static gateways, the
/// scripted faults, and the four scheduled config changes (healthy,
/// poisoned, blackout-stalled, degrading); the blind-push arms are priced
/// against the same arrivals.
pub(crate) fn run_rollout(seed: u64, params: &RolloutParams) -> BlastOutcome {
    let clock = params.clock();
    let plan = scripted_plan(&clock);
    let stream = arrivals(seed, params);
    let first = |target, kind| plan.first(target, kind).unwrap_or(SimTime::MAX);
    let t_bad = first(FaultTarget::ConfigPoison, FaultKind::Crash);
    let blocked_from = first(FaultTarget::ConfigPush, FaultKind::Crash);
    let blocked_to = first(FaultTarget::ConfigPush, FaultKind::Recover);
    let baseline = HealthSample {
        error_rate: 0.0,
        p99: STEADY_P99,
    };

    // The four scheduled changes (seconds, then scaled): a healthy rollout,
    // the poisoned one (content keyed off the scripted fault state), one
    // that lands inside the push blackout, and a valid-but-degrading one.
    let schedule = vec![
        (clock.at(0.0), false),
        (t_bad, false),
        (clock.at(42.0), false),
        (clock.at(60.0), true),
    ];
    let ctl = RolloutController::new(params.rollout_cfg(), SimDuration::ZERO);
    let mut canal: CanalArm<RoutePlane> = CanalArm::new(ctl, params.fleet, schedule);
    let known: BTreeSet<GlobalServiceId> = [SVC].into_iter().collect();

    let mut state = FaultState::new(&FaultTopology {
        backends: Vec::new(),
    });
    let mut pending_faults = plan.events();
    let mut monitor = WaterLevelMonitor::new();
    let mut rng = SimRng::seed(seed ^ 0xCA11_0077_5AFE_0001);

    let mut ar_idx = 0usize;
    let mut window_offered = 0u64;
    let mut window_errors = 0u64;
    let mut errors_poison = 0u64;
    let mut degrade_errors = 0u64;
    let mut blocked_offered = 0u64;
    let mut blocked_errors = 0u64;
    let mut dropped_pushes = 0u64;
    let mut bad_rollback_targets = 0u64;

    for now in clock.ticks() {
        // 1. Scripted ground truth advances.
        state.apply_due(&mut pending_faults, now);

        // 2. Arrivals since the last tick, served from each gateway's
        //    *running* (last committed) config — fail-static by
        //    construction.
        while ar_idx < stream.len() && stream[ar_idx].at <= now {
            let a = stream[ar_idx];
            ar_idx += 1;
            window_offered += 1;
            let rv = canal.slots[a.gw].running_version().unwrap_or(0);
            let mut err = false;
            if rv > 0 && canal.poisoned.contains(&rv) {
                errors_poison += 1;
                err = true;
            } else if canal.harmful == Some(rv) && a.fail_draw {
                degrade_errors += 1;
                err = true;
            }
            if err {
                window_errors += 1;
            }
            if a.at >= blocked_from && a.at < blocked_to {
                blocked_offered += 1;
                if err {
                    blocked_errors += 1;
                }
            }
        }

        // 3. Health over the last tick window (none when idle traffic-wise).
        let health = if window_offered > 0 {
            Some(HealthSample {
                error_rate: window_errors as f64 / window_offered as f64,
                p99: STEADY_P99,
            })
        } else {
            None
        };
        window_offered = 0;
        window_errors = 0;

        // 4. Scheduled changes + the controller's own state machine.
        let begun = canal.begin_due(now, state.active(FaultTarget::ConfigPoison), baseline, &mut rng);
        let mut actions = begun.map_or_else(Vec::new, |(_, first_actions)| first_actions);
        actions.extend(canal.ctl.tick(now, health));

        // 5. Apply actions to the data plane. A blocked southbound channel
        //    drops the action entirely; gateways keep serving their running
        //    config and the controller's ack timeout cleans up.
        for action in actions {
            let mut deliveries = action.deliveries().peekable();
            // A rollback may only restore a version the fleet actually
            // converged on (or 0 = nothing ever committed), and never a
            // poisoned one. Count violations so the blast-radius gate fails
            // if the controller ever "restores" a rejected or
            // never-committed version.
            if let Some(d) = deliveries.peek().filter(|d| d.rollback && d.version != 0) {
                let converged = |o: &RolloutOutcome| {
                    o.version == d.version && o.result == RolloutResult::Converged
                };
                if canal.poisoned.contains(&d.version) || !canal.ctl.outcomes().iter().any(converged) {
                    bad_rollback_targets += 1;
                }
            }
            if state.crashed(FaultTarget::ConfigPush) {
                dropped_pushes += 1;
                continue;
            }
            for d in deliveries {
                let spec = spec_for(d.version, canal.poisoned.contains(&d.version));
                canal.apply(d, spec, now, &known);
            }
        }

        // 6. The control plane's monitor sees the rollout dimension.
        monitor.ingest_rollout(now, canal.ctl.in_flight(), canal.ctl.rollbacks());
    }

    let blocked_outcome = canal
        .ctl
        .outcomes()
        .iter()
        .find(|o| o.result == RolloutResult::RolledBack(RollbackReason::AckTimeout));
    let rollout_alerts = monitor
        .alerts()
        .iter()
        .filter(|(_, k)| *k == AlertKind::ConfigRollout)
        .count() as u64;

    let mut d = Digest::new();
    canal.ctl.fold(&mut d);
    for gw in &canal.slots {
        gw.fold(&mut d);
    }
    d.write_u64(canal.nacks)
        .write_u64(dropped_pushes)
        .write_u64(bad_rollback_targets);

    // Under a blind push every arrival on a proxy running the bad config errors.
    let at_risk = stream.iter().map(|a| (a.at, a.gw));
    let canary_size = params.rollout_cfg().canary_size;
    let offered = stream.len() as u64;
    BlastOutcome {
        blast: canal.blast(canary_size, offered, errors_poison, params.time_scale, t_bad, at_risk),
        degrade_exposed: canal.harmful_exposed(),
        degrade_errors,
        blocked_availability: if blocked_offered == 0 {
            1.0
        } else {
            1.0 - blocked_errors as f64 / blocked_offered as f64
        },
        blocked_timeout_rollback: blocked_outcome.is_some(),
        rollout_alerts,
        dropped_pushes,
        rollback_targets_good: bad_rollback_targets == 0,
        canal_state_digest: d.value(),
        audit: canal.ctl.outcomes().iter().copied().collect(),
    }
}

/// The config-rollout blast-radius comparison.
impl Scenario for BlastOutcome {
    const ID: &'static str = "rollout";
    const INVARIANT: &'static str =
        "config rollout: a poisoned version is NACKed at the canary and never committed, rollback is automatic, fail-static serving";
    const OK_KEY: &'static str = "rollout_ok";
    type Params = RolloutParams;

    fn params(fast: bool) -> RolloutParams {
        if fast { RolloutParams::fast() } else { RolloutParams::full() }
    }

    fn run(seed: u64, params: &RolloutParams) -> Self {
        run_rollout(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        violated("safe-rollout", &self.claims())
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let b = &self.blast;
        vec![("canal", fields!(self => fleet: b.fleet, canary_size: b.canary_size, nacks: b.nacks,
            rollbacks: b.rollbacks, degrade_exposed, degrade_errors, blocked_timeout_rollback,
            healthy_converged: b.healthy_converged, healthy_waves: b.healthy_waves,
            healthy_exposed: b.healthy_exposed, rollout_alerts, dropped_pushes,
            rollback_targets_good))]
    }

    fn report(&self, _seed: u64, _params: &RolloutParams) -> ExperimentReport {
        report(self)
    }
}

fn report(outcome: &BlastOutcome) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "rollout",
        "safe config rollout: blast radius of one poisoned change across push strategies",
    );

    let blast = &outcome.blast;
    let burned = |a: &ArmOutcome| num(a.budget_burned());
    report.tables.push(blast.table("blast radius of the poisoned change", &[("budget burned", burned)]));

    let mut audit = Table::new(
        "canal rollout audit log",
        &["version", "result", "waves", "exposed", "duration s"],
    );
    for o in &outcome.audit {
        audit.row(&[
            o.version.to_string(),
            result_label(o.result),
            o.waves_pushed.to_string(),
            o.exposed_targets.to_string(),
            num(o.ended_at.since(o.started_at).as_secs_f64()),
        ]);
    }
    report.tables.push(audit);

    // Paper-scale southbound cost of the push strategies (Fig. 14/15
    // dimensions applied to the rollout): even a canaried per-pod push pays
    // per-pod bytes, while canal reconfigures one logical target.
    let shape = ClusterShape::production(15_000);
    let sidecar_plane = ConfigPlane::new(Architecture::Sidecar);
    let ambient_plane = ConfigPlane::new(Architecture::Ambient);
    let canal_plane = ConfigPlane::new(Architecture::Canal);
    let istio_full = sidecar_plane.push_update(&shape);
    let istio_canary = sidecar_plane.push_wave(&shape, blast.canary_size);
    let ambient_full = ambient_plane.push_update(&shape);
    let canal_full = canal_plane.push_update(&shape);
    let mut south = Table::new(
        "southbound push cost at paper scale (15k pods)",
        &["push", "targets", "bytes", "push time s"],
    );
    for (label, r) in [
        ("istio full", &istio_full),
        ("istio canary wave", &istio_canary),
        ("ambient full", &ambient_full),
        ("canal full", &canal_full),
    ] {
        south.row(&[
            label.to_string(),
            r.targets.to_string(),
            r.southbound_bytes.to_string(),
            num(r.push_time.as_secs_f64()),
        ]);
    }
    report.tables.push(south);

    report.checks.extend(checks(outcome.claims()));
    report.checks.push(Check::band(
        "paper-scale southbound blow-up, istio full vs canal",
        "O(100x)+ more bytes for a fleet-wide sidecar push",
        istio_full.southbound_bytes as f64 / canal_full.southbound_bytes.max(1) as f64,
        100.0,
        f64::INFINITY,
    ));
    report
}

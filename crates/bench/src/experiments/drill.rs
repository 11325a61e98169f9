//! Disaster drill: one scripted gray failure + asymmetric partition +
//! planned gateway drain, run end to end against the full canal machinery.
//!
//! §2.2 catalogues the outages that kill meshes in practice, and none of
//! them are clean crashes: a gateway that passes every health check while
//! failing real requests (gray failure), a control-plane partition that
//! looks exactly like a NACK storm, a maintenance drain that silently
//! resets every established session. This experiment scripts all three into
//! one region timeline with the shared fault DSL —
//!
//! ```text
//! at 10s degrade gray 0 loss 60% extra 10ms   # gw 0 goes gray (probes pass)
//! at 30s fail control-partition 3             # control plane loses gw 3
//! at 30s fail control-partition 4             #   ... and gw 4
//! at 30s degrade link-directed 1>2 loss 50%   # zone 1 → gw 2, one direction
//! at 60s recover ...                          # everything heals
//! ```
//!
//! — with a config rollout beginning one tick before 30 s (so the
//! partition lands on a rollout *in flight*) and a planned drain of gateway 1 onto gateway 2 at
//! 45 s, and drives three arms under the same demand:
//!
//! * **canal** — the machinery under test: a [`GrayDetector`] fuses active
//!   probes (which the gray gateway keeps passing) with per-request passive
//!   evidence and quarantines it within a bounded number of windows, with
//!   zero false positives; a [`GatewayDrain`] hands the leaving gateway's
//!   buckets to the replacement and daisy-chains established sessions until
//!   they close (zero force-closes); the partition-aware
//!   [`RolloutController`] keeps promoting on a reachable quorum
//!   (unreachable ≠ NACK), partitioned gateways serve fail-static under a
//!   valid config lease, and on heal monotone catch-up pushes converge the
//!   whole fleet on exactly one active version.
//! * **istio-sidecar** — per-pod proxies with active health checks only:
//!   the gray gateway is never detected (probes stay green for the whole
//!   50 s window), a drained node resets its established sessions, and
//!   blind config pushes during the partition leave two active versions
//!   with no reconciliation order.
//! * **ambient** — ztunnel node proxies: node-tunnel reuse shields part of
//!   the gray blast, but detection is still probe-only and drain/partition
//!   behave like the sidecar arm.
//!
//! Everything is seeded and tick-driven; double runs are bit-identical
//! ([`DrillOutcome::digest`], gated by `experiments drill`).
//!
//! [`GrayDetector`]: canal_cluster::GrayDetector
//! [`GatewayDrain`]: canal_gateway::GatewayDrain
//! [`RolloutController`]: canal_control::rollout::RolloutController

use crate::experiments::southbound::{DelayLine, RateCarry, TickClock};
use crate::harness::ExperimentReport;
use crate::scenario::{checks, fields, violated, Claim, Json, Scenario};
use canal_cluster::probe::ProbePolicy;
use canal_cluster::{GrayDetector, GrayPolicy, GrayVerdict};
use canal_control::rollout::{Delivery, HealthSample, RolloutConfig, RolloutController};
use canal_gateway::{DrainPhase, GatewayDrain};
use canal_net::{Endpoint, FiveTuple, FlowHash, VpcAddr, VpcId};
use canal_sim::faults::{FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::{num, Table};
use canal_sim::{Digest, Fold, SimDuration, SimRng, SimTime, Stats};

/// The gateway the script turns gray.
const GRAY_GW: u32 = 0;
/// The gateway the drill drains, and its replacement.
const DRAIN_GW: usize = 1;
const DRAIN_REPLACEMENT: usize = 2;
/// The gateways the control-plane partition cuts off.
const PARTITIONED: [u32; 2] = [3, 4];
/// The asymmetric data-plane fault: zone 1 → gateway 2, one direction only.
const ASYM_FROM: u32 = 1;
const ASYM_TO: u32 = 2;
/// Scripted beats, in (unscaled) seconds.
const GRAY_ONSET_S: f64 = 10.0;
const ROLLOUT_V1_S: f64 = 2.0;
// One tick before the partition: the rollout is in flight when the
// partition lands, and every v2 push to a partitioned target — canary or
// later wave, whatever the shuffle — falls inside the partition window and
// is dropped, so heal catch-up always has work to do.
const ROLLOUT_V2_S: f64 = 29.9;
const PARTITION_S: f64 = 30.0;
const DRAIN_S: f64 = 45.0;
const HEAL_S: f64 = 60.0;
const HORIZON_S: f64 = 90.0;
/// The gray gateway must be quarantined within this many evidence windows
/// of onset — the bounded-detection gate.
const DETECT_WINDOW_BOUND: u64 = 8;
/// Session lifetimes are exponential with this mean, capped below the
/// drain grace window so a patient drain can always finish clean.
const MEAN_SESSION_S: f64 = 5.0;
const MAX_SESSION_S: f64 = 15.0;
const DRAIN_GRACE_S: f64 = 20.0;
/// Fraction of the gray blast the ambient arm's node-tunnel reuse absorbs.
const AMBIENT_SHIELD: f64 = 0.3;

/// Request demand (requests/s across the region).
const REQ_PER_S: f64 = 600.0;
/// New-session rate (opens/s across the region).
const OPENS_PER_S: f64 = 40.0;
/// Gateways in the region.
const FLEET: usize = 6;

/// Disaster-drill run parameters.
#[derive(Debug, Clone, Copy)]
pub struct DrillParams {
    /// Time compression: every scripted time and window scales by this.
    pub(crate) time_scale: f64,
}

impl DrillParams {
    /// The full run: 90 s timeline at real scale.
    pub fn full() -> Self {
        DrillParams { time_scale: 1.0 }
    }

    /// CI smoke mode: 4× compressed.
    pub(crate) fn fast() -> Self {
        DrillParams { time_scale: 0.25 }
    }

    /// The scaled clock: the scripted timeline in 100 ms ticks.
    fn clock(&self) -> TickClock {
        let horizon = SimDuration::from_secs_f64(HORIZON_S);
        TickClock::new(self.time_scale, SimDuration::from_millis(100), horizon)
    }

    fn gray_policy(&self) -> GrayPolicy {
        GrayPolicy {
            window: SimDuration::from_secs(1).scale(self.time_scale),
            cooloff: SimDuration::from_secs(10).scale(self.time_scale),
        }
    }

    fn probe_policy(&self) -> ProbePolicy {
        ProbePolicy {
            interval: SimDuration::from_secs(1).scale(self.time_scale),
            ..ProbePolicy::default()
        }
    }

    fn rollout_cfg(&self) -> RolloutConfig {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 4,
            bake_time: SimDuration::from_secs(3).scale(self.time_scale),
            ack_timeout: SimDuration::from_secs(4).scale(self.time_scale),
            lease_duration: SimDuration::from_secs(40).scale(self.time_scale),
            ..RolloutConfig::default()
        }
    }
}

/// The scripted region timeline.
fn scripted_plan(clock: &TickClock) -> FaultPlan {
    let [p0, p1] = PARTITIONED;
    clock.script(&[
        (GRAY_ONSET_S, format!("degrade gray {GRAY_GW} loss 60% extra 10ms")),
        (PARTITION_S, format!("fail control-partition {p0}")),
        (PARTITION_S, format!("fail control-partition {p1}")),
        (PARTITION_S, format!("degrade link-directed {ASYM_FROM}>{ASYM_TO} loss 50%")),
        (HEAL_S, format!("recover gray {GRAY_GW}")),
        (HEAL_S, format!("recover control-partition {p0}")),
        (HEAL_S, format!("recover control-partition {p1}")),
        (HEAL_S, format!("recover link-directed {ASYM_FROM}>{ASYM_TO}")),
    ])
}

/// Everything the canal arm measures.
#[derive(Debug, Clone)]
pub struct CanalDrillRun {
    /// Real requests routed (canary probes included).
    pub(crate) requests: u64,
    /// Requests that failed, fleet-wide.
    pub(crate) errors: u64,
    /// Failed requests on the gray gateway (the gray blast the detector
    /// bounds).
    pub(crate) gray_errors: u64,
    /// Evidence windows from gray onset to quarantine (`u64::MAX` = never).
    pub(crate) detect_windows: u64,
    /// Lifetime quarantine transitions.
    pub(crate) quarantines: u64,
    /// Quarantines of any gateway other than the scripted gray one.
    pub(crate) false_positive_quarantines: u64,
    /// The quarantine cleared (cooloff + clean canary windows) after heal.
    pub(crate) quarantine_cleared: bool,
    /// Requests steered off the quarantined gateway.
    pub(crate) rerouted: u64,
    /// Canary requests sent to quarantined gateways.
    pub(crate) canary_requests: u64,
    /// Sessions opened over the run.
    pub(crate) sessions_opened: u64,
    /// Daisy-chained packet hand-offs during the drain.
    pub(crate) handed_off: u64,
    /// Sessions force-closed at the drain deadline (the zero-loss gate).
    pub(crate) force_closed: u64,
    /// The leaving gateway reached `Drained`.
    pub(crate) drain_completed: bool,
    /// Established sessions on the leaving gateway when the drain began —
    /// what a handoff-less architecture would reset.
    pub(crate) sessions_at_drain: u64,
    /// Rollouts that converged (must be 2: v1 and v2).
    pub(crate) rollouts_converged: u64,
    /// Automatic rollbacks (must be 0: partition ≠ NACK).
    pub(crate) rollbacks: u64,
    /// Monotone catch-up pushes on partition heal.
    pub(crate) catch_up_pushes: u64,
    /// Ticks a quorum-starved wave spent holding.
    pub(crate) partition_holds: u64,
    /// Config pushes dropped at partitioned targets.
    pub(crate) dropped_pushes: u64,
    /// Requests served by partitioned gateways (fail-static) during the
    /// partition.
    pub(crate) fail_static_served: u64,
    /// Ticks a partitioned gateway served past its config lease (must be 0).
    pub(crate) lease_violations: u64,
    /// After heal + catch-up, every gateway acked the same final version.
    pub(crate) one_converged_version: bool,
    /// That version (must be 2).
    pub(crate) last_good: u64,
    /// Failed requests on the scripted asymmetric path (zone 1 → gw 2).
    pub(crate) asym_forward_errors: u64,
    /// Failed requests on the reverse path (zone 2 → gw 1) — must be 0.
    pub(crate) asym_reverse_errors: u64,
    /// Payload bytes carried by successful requests.
    pub(crate) total_bytes: u64,
    /// Simulation events processed (requests, probes, window rolls,
    /// session ops, config pushes).
    pub events: u64,
    /// Full detector + drain + controller + fault-state digest.
    pub(crate) state_digest: u64,
}

/// One coarse analytic arm (sidecar / ambient).
#[derive(Debug, Clone)]
pub(crate) struct DrillArm {
    /// Arm name.
    pub(crate) name: &'static str,
    /// Failed requests on the gray gateway over the full window (active
    /// probes never catch it).
    pub(crate) gray_errors: u64,
    /// Seconds the gray gateway keeps taking real traffic undetected.
    pub(crate) undetected_secs: f64,
    /// Established sessions reset by the maintenance drain.
    pub(crate) sessions_lost: u64,
    /// Active config versions after the partition heals.
    pub(crate) active_versions_post_heal: u64,
    /// Promotions made without a reachability quorum during the partition.
    pub(crate) unsafe_promotions: u64,
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// The canal arm (the machinery under test).
    pub canal: CanalDrillRun,
    /// The sidecar and ambient comparison arms.
    pub(crate) arms: Vec<DrillArm>,
}

impl DrillOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        let c = &self.canal;
        d.write_u64(c.requests)
            .write_u64(c.errors)
            .write_u64(c.gray_errors)
            .write_u64(c.detect_windows)
            .write_u64(c.quarantines)
            .write_u64(c.false_positive_quarantines)
            .write_u64(u64::from(c.quarantine_cleared))
            .write_u64(c.rerouted)
            .write_u64(c.canary_requests)
            .write_u64(c.sessions_opened)
            .write_u64(c.handed_off)
            .write_u64(c.force_closed)
            .write_u64(u64::from(c.drain_completed))
            .write_u64(c.sessions_at_drain)
            .write_u64(c.rollouts_converged)
            .write_u64(c.rollbacks)
            .write_u64(c.catch_up_pushes)
            .write_u64(c.partition_holds)
            .write_u64(c.dropped_pushes)
            .write_u64(c.fail_static_served)
            .write_u64(c.lease_violations)
            .write_u64(u64::from(c.one_converged_version))
            .write_u64(c.last_good)
            .write_u64(c.asym_forward_errors)
            .write_u64(c.asym_reverse_errors)
            .write_u64(c.total_bytes)
            .write_u64(c.events)
            .write_u64(c.state_digest);
        for a in &self.arms {
            d.write_str(a.name)
                .write_u64(a.gray_errors)
                .write_f64(a.undetected_secs)
                .write_u64(a.sessions_lost)
                .write_u64(a.active_versions_post_heal)
                .write_u64(a.unsafe_promotions);
        }
        d.value()
    }

    /// Whether the invariant `experiments drill` gates on holds: every clause
    /// of the drill's claims.
    pub fn drill_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// The drill's report checks, each with the clauses it rests on.
    fn claims(&self) -> Vec<Claim> {
        let c = &self.canal;
        let Some(sidecar) = self.arms.first() else {
            return vec![Claim::unreported(&[("the sidecar arm ran", false)])];
        };
        vec![
            Claim::new(
                "gray gateway quarantined within the bounded window, zero false positives",
                "differential detection: passive evidence vs peer median, probes fused in",
                &format!(
                    "{} windows to quarantine, {} false positives",
                    c.detect_windows, c.false_positive_quarantines
                ),
                &[
                    ("exactly the gray gateway is quarantined, once", c.quarantines == 1),
                    ("no healthy gateway is quarantined", c.false_positive_quarantines == 0),
                    ("gray detection is bounded", c.detect_windows <= DETECT_WINDOW_BOUND),
                ],
            ),
            Claim::new(
                "quarantine clears via cooloff + clean canary after heal",
                "hysteresis: no flap, no permanent exile",
                &format!("cleared: {}", c.quarantine_cleared),
                &[("the quarantine clears after heal", c.quarantine_cleared)],
            ),
            Claim::band(
                "probe-only detection error amplification (ratio)",
                "active probes never catch a gray gateway",
                sidecar.gray_errors as f64 / c.gray_errors.max(1) as f64,
                2.5,
                1e9,
            ),
            Claim::new(
                "planned drain loses zero established sessions",
                "bucket hand-off + daisy-chained forwarding until natural close",
                &format!(
                    "{} at drain start, {} handed off, {} force-closed",
                    c.sessions_at_drain, c.handed_off, c.force_closed
                ),
                &[
                    ("the drain force-closes no session", c.force_closed == 0),
                    ("the drain hands sessions off", c.handed_off > 0),
                    ("the leaving gateway reaches Drained", c.drain_completed),
                    ("the drain starts with established sessions", c.sessions_at_drain > 0),
                ],
            ),
            Claim::new(
                "partition is not a NACK: in-flight rollout survives without rollback",
                "wave acks on reachable quorum; unreachable targets hold, not kill",
                &format!(
                    "{} rollbacks, {} dropped pushes, {} converged rollouts",
                    c.rollbacks, c.dropped_pushes, c.rollouts_converged
                ),
                &[
                    ("the partition causes no rollback", c.rollbacks == 0),
                    ("the partition drops pushes", c.dropped_pushes > 0),
                    ("both rollouts converge", c.rollouts_converged == 2),
                ],
            ),
            Claim::new(
                "heal catch-up converges the fleet on exactly one version",
                "monotone reconciliation: forward only, no split-brain",
                &format!(
                    "catch-up pushes {}, converged on v{}: {}",
                    c.catch_up_pushes, c.last_good, c.one_converged_version
                ),
                &[
                    ("heal triggers catch-up pushes", c.catch_up_pushes >= 1),
                    ("the fleet ends on one converged version", c.one_converged_version),
                    ("that version is v2", c.last_good == 2),
                ],
            ),
            Claim::new(
                "partitioned gateways serve fail-static under a valid config lease",
                "data plane outlives its control channel",
                &format!("{} fail-static serves, {} lease violations", c.fail_static_served, c.lease_violations),
                &[
                    ("partitioned gateways serve fail-static", c.fail_static_served > 0),
                    ("no gateway serves past its config lease", c.lease_violations == 0),
                ],
            ),
            Claim::new(
                "the scripted link fault is really asymmetric",
                "directed loss: forward path degraded, reverse path clean",
                &format!("{} forward errors vs {} reverse", c.asym_forward_errors, c.asym_reverse_errors),
                &[
                    ("the asymmetric link fails forward", c.asym_forward_errors > 0),
                    ("the asymmetric link is clean in reverse", c.asym_reverse_errors == 0),
                ],
            ),
        ]
    }
}

/// Run the canal arm: the scripted drill against the real machinery.
pub(crate) fn run_canal(seed: u64, params: &DrillParams) -> CanalDrillRun {
    let ts = params.time_scale;
    let clock = params.clock();
    let tick_s = clock.tick().as_secs_f64();
    let plan = scripted_plan(&clock);
    let mut rng = SimRng::seed(seed ^ 0xD_2111_D12A_57E2);

    // Ground truth.
    let mut state = FaultState::new(&FaultTopology { backends: Vec::new() });
    let mut pending_faults = plan.events();

    // Request plane: the differential gray detector over the fleet.
    let mut detector: GrayDetector<u32> =
        GrayDetector::new(params.gray_policy(), params.probe_policy());
    for g in 0..FLEET as u32 {
        detector.add_target(g);
    }

    // Session plane: the drain coordinator over the same fleet.
    let gateways: Vec<usize> = (0..FLEET).collect();
    let mut drain = GatewayDrain::new(128, &gateways, 4, 100_000);
    // Each live session keeps its flow hash: hashed once at open.
    let mut live: Vec<(FlowHash, FiveTuple, SimTime)> = Vec::new();
    let mut next_port = 1024u16;

    // Control plane: the partition-aware rollout controller.
    let mut ctl = RolloutController::new(params.rollout_cfg(), SimDuration::ZERO);
    for g in 0..FLEET as u32 {
        ctl.add_target(g);
    }
    let mut southbound: DelayLine<Delivery> = DelayLine::default();
    let push_delay = clock.tick();
    let mut v1_begun = false;
    let mut v2_begun = false;
    let mut drain_begun = false;

    // Demand carries.
    let mut req_carry = RateCarry::default();
    let mut open_carry = RateCarry::default();

    // Metrics.
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut gray_errors = 0u64;
    let mut rerouted = 0u64;
    let mut canary_requests = 0u64;
    let mut quarantine_at: Option<SimTime> = None;
    let mut false_positives = 0u64;
    let mut dropped_pushes = 0u64;
    let mut fail_static_served = 0u64;
    let mut lease_violations = 0u64;
    let mut sessions_at_drain = 0u64;
    let mut asym_forward_errors = 0u64;
    let mut asym_reverse_errors = 0u64;
    let mut total_bytes = 0u64;
    let mut events = 0u64;

    let base_latency = SimDuration::from_millis(1);
    let gray_onset = clock.at(GRAY_ONSET_S);

    for now in clock.ticks() {
        // 1. Scripted ground truth.
        let fired = state.apply_due(&mut pending_faults, now);
        events += fired.len() as u64;

        // 2. Reachability transitions feed the controller; heal emits the
        //    monotone catch-up pushes.
        let mut actions = Vec::new();
        for ev in fired {
            match (ev.target, ev.kind) {
                (FaultTarget::ControlPartition(g), FaultKind::Crash) => {
                    ctl.set_reachable(g, false, now);
                }
                (FaultTarget::ControlPartition(g), FaultKind::Recover) => {
                    actions.extend(ctl.set_reachable(g, true, now));
                }
                _ => {}
            }
        }

        // 3. Rollout beats + state machine. Rollbacks travel like pushes;
        //    the drill gate asserts none ever fire.
        if !v1_begun && now >= clock.at(ROLLOUT_V1_S) {
            v1_begun = true;
            actions.extend(ctl.begin(now, true, HealthSample::HEALTHY, &mut rng));
        }
        if !v2_begun && now >= clock.at(ROLLOUT_V2_S) {
            v2_begun = true;
            actions.extend(ctl.begin(now, true, HealthSample::HEALTHY, &mut rng));
        }
        actions.extend(ctl.tick(now, None));
        for d in actions.iter().flat_map(|action| action.deliveries()) {
            southbound.send(now + push_delay, d);
        }

        // 4. Deliver config pushes: a partitioned target never sees one.
        for d in southbound.arrived(now) {
            events += 1;
            if state.active(FaultTarget::ControlPartition(d.target)) {
                dropped_pushes += 1;
            } else {
                ctl.ack(d.target, d.version, now);
            }
        }

        // 5. Lease accounting: a partitioned gateway serving fail-static
        //    must still be inside its config lease.
        for g in state.partitioned_targets() {
            if !ctl.lease_valid(g, now) {
                lease_violations += 1;
            }
        }

        // 6. Active probes — the gray gateway keeps passing them.
        for g in 0..FLEET as u32 {
            if detector.probes().due(&g, now) {
                detector.record_probe(&g, now, true);
                events += 1;
            }
        }

        // 7. Real requests: routed away from quarantined gateways, with
        //    per-request outcomes feeding the passive evidence stream.
        let drained = |g: u32| drain.phase(g as usize) == Some(DrainPhase::Drained);
        let n_requests = req_carry.take(REQ_PER_S * tick_s);
        for _ in 0..n_requests {
            let zone = rng.index(FLEET) as u32;
            let mut g = rng.index(FLEET) as u32;
            if detector.is_quarantined(&g) || drained(g) {
                rerouted += 1;
                for off in 1..FLEET as u32 {
                    let alt = (g + off) % FLEET as u32;
                    if !detector.is_quarantined(&alt) && !drained(alt) {
                        g = alt;
                        break;
                    }
                }
            }
            let (ok, latency) = request_outcome(&state, &mut rng, zone, g, base_latency);
            detector.record_request(&g, ok, latency);
            requests += 1;
            events += 1;
            if ok {
                total_bytes += 1024 + rng.index(512) as u64;
                if state.active(FaultTarget::ControlPartition(g)) {
                    fail_static_served += 1;
                }
            } else {
                errors += 1;
                if g == GRAY_GW {
                    gray_errors += 1;
                }
            }
            if zone == ASYM_FROM && g == ASYM_TO && !ok {
                asym_forward_errors += 1;
            }
            if zone == ASYM_TO && g == ASYM_FROM && !ok {
                asym_reverse_errors += 1;
            }
        }

        // 8. Canary trickle: the only route back for a quarantined gateway.
        for g in 0..FLEET as u32 {
            if detector.allow_canary(&g, now) {
                for _ in 0..2 {
                    let zone = rng.index(FLEET) as u32;
                    let (ok, latency) = request_outcome(&state, &mut rng, zone, g, base_latency);
                    detector.record_request(&g, ok, latency);
                    requests += 1;
                    canary_requests += 1;
                    events += 1;
                    if !ok {
                        errors += 1;
                        if g == GRAY_GW {
                            gray_errors += 1;
                        }
                    }
                }
            }
        }

        // 9. Close the evidence window; watch for quarantine transitions.
        if detector.due(now) {
            for (g, verdict) in detector.roll_window(now) {
                events += 1;
                if verdict == GrayVerdict::Quarantined {
                    if g == GRAY_GW {
                        quarantine_at.get_or_insert(now);
                    } else {
                        false_positives += 1;
                    }
                }
            }
        }

        // 10. Session plane: opens, per-session packets, natural closes.
        for _ in 0..open_carry.take(OPENS_PER_S * tick_s) {
            let tuple = session_tuple(next_port);
            let hash = FlowHash::of(&tuple);
            next_port = next_port.wrapping_add(1);
            if drain.open(hash, tuple).is_ok() {
                let life = rng.exponential(MEAN_SESSION_S * ts).min(MAX_SESSION_S * ts);
                live.push((hash, tuple, now + SimDuration::from_secs_f64(life)));
                events += 1;
            }
        }
        live.retain(|(hash, tuple, closes)| {
            events += 1;
            if *closes <= now {
                drain.close(*hash, tuple);
                false
            } else {
                drain.packet(*hash, tuple);
                true
            }
        });

        // 11. The planned drain, and its progress.
        if !drain_begun && now >= clock.at(DRAIN_S) {
            drain_begun = true;
            sessions_at_drain = drain.sessions_on(DRAIN_GW) as u64;
            drain
                .begin_drain(
                    now,
                    DRAIN_GW,
                    DRAIN_REPLACEMENT,
                    SimDuration::from_secs_f64(DRAIN_GRACE_S * ts),
                )
                .ok();
        }
        drain.tick(now);
    }

    let detect_windows = quarantine_at.map_or(u64::MAX, |t| {
        let w = params.gray_policy().window.as_nanos().max(1);
        t.since(gray_onset).as_nanos().div_ceil(w)
    });
    let (_, _, handed_off, force_closed, _) = drain.stats();
    let mut s = Stats::default();
    s.scope("detector", |s| detector.fold(s)).scope("ctl", |s| ctl.fold(s));
    let count = |path| s.get(path).unwrap_or(0);
    let store = ctl.store();
    let one_converged_version = store.converged();

    let mut d = Digest::new();
    detector.fold(&mut d);
    drain.fold(&mut d);
    ctl.fold(&mut d);
    state.fold(&mut d);
    d.write_u64(requests).write_u64(errors).write_u64(total_bytes);

    CanalDrillRun {
        requests,
        errors,
        gray_errors,
        detect_windows,
        quarantines: count("detector.quarantines"),
        false_positive_quarantines: false_positives,
        quarantine_cleared: count("detector.clears") >= 1 && !detector.is_quarantined(&GRAY_GW),
        rerouted,
        canary_requests,
        sessions_opened: drain.stats().0,
        handed_off,
        force_closed,
        drain_completed: drain.phase(DRAIN_GW) == Some(DrainPhase::Drained),
        sessions_at_drain,
        rollouts_converged: ctl
            .outcomes()
            .iter()
            .filter(|o| o.result == canal_control::rollout::RolloutResult::Converged)
            .count() as u64,
        rollbacks: ctl.rollbacks(),
        catch_up_pushes: count("ctl.catch_up_pushes"),
        partition_holds: count("ctl.partition_holds"),
        dropped_pushes,
        fail_static_served,
        lease_violations,
        one_converged_version,
        last_good: ctl.last_known_good(),
        asym_forward_errors,
        asym_reverse_errors,
        total_bytes,
        events,
        state_digest: d.value(),
    }
}

/// Outcome of one request from `zone` to gateway `g` under the current
/// fault ground truth.
fn request_outcome(
    state: &FaultState,
    rng: &mut SimRng,
    zone: u32,
    g: u32,
    base: SimDuration,
) -> (bool, SimDuration) {
    let mut latency = base.scale(rng.uniform(0.8, 1.2));
    let mut ok = true;
    let gray = FaultTarget::GrayDegrade(g);
    if state.active(gray) {
        latency += state.extra(gray);
        if rng.chance(state.loss(gray)) {
            ok = false;
        }
    }
    let link_loss = state.directed_link_loss(zone, g);
    if link_loss > 0.0 {
        latency += state.directed_link_extra(zone, g);
        if rng.chance(link_loss) {
            ok = false;
        }
    }
    (ok, latency)
}

fn session_tuple(sport: u16) -> FiveTuple {
    FiveTuple::tcp(
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, (sport >> 8) as u8, sport as u8), sport),
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 99, 1), 443),
    )
}

/// The sidecar / ambient comparison arms, priced analytically from the same
/// demand: active probes never catch a gray gateway (probes pass by
/// definition), a handoff-less drain resets the node's established
/// sessions, and blind pushes promote without a quorum and leave two active
/// versions after the heal.
fn analytic_arms(params: &DrillParams, canal: &CanalDrillRun) -> Vec<DrillArm> {
    let gray_window_s = (HEAL_S - GRAY_ONSET_S) * params.time_scale;
    let gray_share = REQ_PER_S / FLEET as f64;
    let undetected_errors = (gray_share * gray_window_s * 0.6) as u64;
    vec![
        DrillArm {
            name: "istio-sidecar",
            gray_errors: undetected_errors,
            undetected_secs: gray_window_s,
            sessions_lost: canal.sessions_at_drain,
            active_versions_post_heal: 2,
            unsafe_promotions: 1,
        },
        DrillArm {
            name: "ambient",
            gray_errors: (undetected_errors as f64 * (1.0 - AMBIENT_SHIELD)) as u64,
            undetected_secs: gray_window_s,
            sessions_lost: canal.sessions_at_drain,
            active_versions_post_heal: 2,
            unsafe_promotions: 1,
        },
    ]
}

/// Run the whole drill. Fully deterministic in `seed`.
pub fn run_drill(seed: u64, params: &DrillParams) -> DrillOutcome {
    let canal = run_canal(seed, params);
    let arms = analytic_arms(params, &canal);
    DrillOutcome { canal, arms }
}

/// The disaster drill: gray failure, asymmetric partition, graceful drain.
impl Scenario for DrillOutcome {
    const ID: &'static str = "drill";
    const INVARIANT: &'static str =
        "disaster drill: the drain loses zero sessions, the gray gateway is quarantined with no false positives, a partition causes no rollback, one version after heal";
    const OK_KEY: &'static str = "drill_ok";
    type Params = DrillParams;

    fn params(fast: bool) -> DrillParams {
        if fast { DrillParams::fast() } else { DrillParams::full() }
    }

    fn run(seed: u64, params: &DrillParams) -> Self {
        run_drill(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        violated("drill", &self.claims())
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        vec![("canal", fields!(self.canal => requests, errors, gray_errors, detect_windows,
            quarantines, false_positive_quarantines, quarantine_cleared, sessions_opened,
            sessions_at_drain, handed_off, force_closed, rollbacks, dropped_pushes,
            catch_up_pushes, fail_static_served, lease_violations, one_converged_version,
            last_good))]
    }

    fn report(&self, _seed: u64, params: &DrillParams) -> ExperimentReport {
        report(self, params)
    }
}

fn report(outcome: &DrillOutcome, params: &DrillParams) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "drill",
        "disaster drill: gray failure, asymmetric partition, graceful drain",
    );
    let c = &outcome.canal;
    let window_s = params.gray_policy().window.as_secs_f64();

    let mut arms = Table::new(
        "disaster drill by architecture",
        &["arm", "gray errors", "undetected", "sessions lost", "versions post-heal", "unsafe promotions"],
    );
    arms.row(&[
        "canal".to_string(),
        c.gray_errors.to_string(),
        format!("{} s", num(c.detect_windows as f64 * window_s)),
        c.force_closed.to_string(),
        if c.one_converged_version { "1".to_string() } else { "2+".to_string() },
        "0".to_string(),
    ]);
    for a in &outcome.arms {
        arms.row(&[
            a.name.to_string(),
            a.gray_errors.to_string(),
            format!("{} s", num(a.undetected_secs)),
            a.sessions_lost.to_string(),
            a.active_versions_post_heal.to_string(),
            a.unsafe_promotions.to_string(),
        ]);
    }
    report.tables.push(arms);

    let mut detail = Table::new("canal drill detail", &["metric", "value"]);
    detail.row(&["requests".to_string(), c.requests.to_string()]);
    detail.row(&["errors".to_string(), c.errors.to_string()]);
    detail.row(&["detection windows".to_string(), c.detect_windows.to_string()]);
    detail.row(&["rerouted off quarantine".to_string(), c.rerouted.to_string()]);
    detail.row(&["canary requests".to_string(), c.canary_requests.to_string()]);
    detail.row(&["sessions opened".to_string(), c.sessions_opened.to_string()]);
    detail.row(&["sessions at drain".to_string(), c.sessions_at_drain.to_string()]);
    detail.row(&["daisy-chained hand-offs".to_string(), c.handed_off.to_string()]);
    detail.row(&["force-closed".to_string(), c.force_closed.to_string()]);
    detail.row(&["dropped pushes (partition)".to_string(), c.dropped_pushes.to_string()]);
    detail.row(&["catch-up pushes".to_string(), c.catch_up_pushes.to_string()]);
    detail.row(&["fail-static serves".to_string(), c.fail_static_served.to_string()]);
    report.tables.push(detail);

    report.checks.extend(checks(outcome.claims()));
    report
}

//! Controller-failover drill: journaled crash recovery, epoch fencing, and
//! the zombie-incarnation race, run end to end against the real machinery.
//!
//! A sidecar-free mesh concentrates config distribution in one controller,
//! so §2.2's scariest outage is no longer a bad config — it is the
//! *controller itself* dying mid-wave, or worse, coming back twice. This
//! experiment scripts three crash scenarios with the shared fault DSL
//! (`control-crash <dur>` / `control-zombie`) and drives each against a
//! real fleet of epoch-fencing [`ActiveConfig`] gateways:
//!
//! * **healthy-crash** — the controller dies right as a promotion wave
//!   leaves its send queue (the pushes die with it) and restarts from its
//!   write-ahead [`Journal`]. [`RolloutController::recover`] replays the
//!   journal, runs anti-entropy over the fleet's reported running versions,
//!   re-pushes exactly the targets the crash orphaned — the already-
//!   committed canary is *not* re-exposed — and resumes the in-flight wave
//!   to convergence on exactly one version.
//! * **rollback-crash** — a poisoned version passes validation but tanks
//!   canary health; the controller journals the rollback intent and dies
//!   before the rollback pushes leave. The next incarnation finds the
//!   pending rollback in the journal and finishes it: zero gateways are
//!   left running the poisoned version.
//! * **zombie** — the pre-crash incarnation was paused, not dead, and
//!   resumes pushing (stale waves *and* a version-legal rollback) at its
//!   old epoch while the recovered controller runs at epoch+1. Every
//!   zombie push is fenced by the data plane's monotone epoch floor
//!   ([`Rejection::StaleEpoch`]); the fleet never diverges.
//!
//! A journal-less baseline (sidecar / ambient control planes restart
//! blind) is priced analytically for comparison: full-fleet re-push with
//! duplicate canary exposure, and zombie pushes that all apply.
//!
//! Everything is seeded and tick-driven; double runs are bit-identical
//! ([`FailoverOutcome::digest`], gated by `experiments failover`).
//!
//! [`Journal`]: canal_control::journal::Journal
//! [`RolloutController::recover`]: canal_control::rollout::RolloutController::recover
//! [`ActiveConfig`]: canal_gateway::ActiveConfig
//! [`Rejection::StaleEpoch`]: canal_gateway::Rejection::StaleEpoch

use crate::experiments::southbound::{DelayLine, TickClock};
use crate::harness::ExperimentReport;
use crate::scenario::{checks, fields, violated, Claim, Json};
use canal_control::rollout::{
    Delivery, HealthSample, RolloutAction, RolloutConfig, RolloutController, RolloutPhase,
};
use canal_gateway::{ActiveConfig, ConfigSpec, Rejection, RouteSpec};
use canal_net::GlobalServiceId;
use canal_sim::faults::{FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::Table;
use canal_sim::{Digest, Fold, SimDuration, SimRng, SimTime, Stats};
use std::collections::BTreeMap;

/// Services every gateway knows; specs route all of them.
const SERVICES: u64 = 4;
/// Scripted beats, in (unscaled) seconds. The baseline v1 rollout begins
/// at `V1_S` and converges well before `V2_S` starts the version under
/// test.
const V1_S: f64 = 0.5;
const V2_S: f64 = 6.0;
/// Healthy / zombie arms: the crash lands one tick after the promotion
/// wave is cut, so the wave's pushes die in the controller's send queue.
/// (v2's canary acks at 6.2 s, bakes 1.5 s, cuts wave 1 at 7.7 s; the
/// pushes are due one tick later.)
const CRASH_WAVE_S: f64 = 7.8;
/// Rollback arm: the crash lands one tick after the health rollback is
/// journaled, so the rollback pushes die in the send queue.
const CRASH_ROLLBACK_S: f64 = 6.3;
/// Controller restart delay (the `control-crash` operand).
const RESTART_AFTER_S: f64 = 8.0;
/// Zombie arm: restart sooner, then the old incarnation resumes at 15 s.
const RESTART_ZOMBIE_S: f64 = 6.0;
const ZOMBIE_ON_S: f64 = 15.0;
const ZOMBIE_OFF_S: f64 = 20.0;
const HORIZON_S: f64 = 30.0;
/// Gateways in the fleet.
const FLEET: usize = 8;

/// Failover-drill run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FailoverParams {
    /// Time compression: every scripted time and window scales by this.
    pub(crate) time_scale: f64,
}

impl FailoverParams {
    /// The full run: 30 s timeline per arm at real scale.
    pub fn full() -> Self {
        FailoverParams { time_scale: 1.0 }
    }

    /// CI smoke mode: 2× compressed.
    pub(crate) fn fast() -> Self {
        FailoverParams { time_scale: 0.5 }
    }

    /// The scaled clock: each arm's timeline in 100 ms ticks.
    fn clock(&self) -> TickClock {
        let horizon = SimDuration::from_secs_f64(HORIZON_S);
        TickClock::new(self.time_scale, SimDuration::from_millis(100), horizon)
    }

    fn rollout_cfg(&self) -> RolloutConfig {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 3,
            bake_time: SimDuration::from_millis(1500).scale(self.time_scale),
            ack_timeout: SimDuration::from_secs(4).scale(self.time_scale),
            lease_duration: SimDuration::from_secs(60).scale(self.time_scale),
            ..RolloutConfig::default()
        }
    }
}

/// Which crash scenario an arm scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    HealthyCrash,
    RollbackCrash,
    Zombie,
}

/// The scripted timeline for one arm.
fn scripted_plan(scenario: Scenario, clock: &TickClock) -> FaultPlan {
    let crash = |restart_after: f64| format!("fail control-crash {}", clock.ms(restart_after));
    match scenario {
        // The controller dies as the promotion wave leaves; restarts later.
        Scenario::HealthyCrash => clock.script(&[(CRASH_WAVE_S, crash(RESTART_AFTER_S))]),
        // The controller dies right after journaling the rollback intent.
        Scenario::RollbackCrash => clock.script(&[(CRASH_ROLLBACK_S, crash(RESTART_AFTER_S))]),
        // Crash, fast restart, then the old incarnation resumes pushing.
        Scenario::Zombie => clock.script(&[
            (CRASH_WAVE_S, crash(RESTART_ZOMBIE_S)),
            (ZOMBIE_ON_S, "fail control-zombie".to_string()),
            (ZOMBIE_OFF_S, "recover control-zombie".to_string()),
        ]),
    }
}

/// A northbound ack in flight.
#[derive(Debug, Clone, Copy)]
struct AckMsg {
    target: u32,
    version: u64,
    epoch: u64,
}

/// Everything one arm measures.
#[derive(Debug, Clone)]
pub struct FailoverArmRun {
    /// Arm name.
    pub name: &'static str,
    /// Live-controller pushes delivered to gateways (rollbacks included).
    pub(crate) pushes_delivered: u64,
    /// Successful commits (stage + validate + swap) across the fleet.
    pub(crate) commits: u64,
    /// Content / version NACKs returned to the live controller.
    pub(crate) nacks: u64,
    /// Live-controller deliveries of a version the gateway already runs —
    /// the duplicate-exposure count the journal keeps at zero.
    pub(crate) duplicate_exposures: u64,
    /// Pushes that died in the crashed controller's send queue.
    pub(crate) dropped_in_flight: u64,
    /// Targets re-pushed by the recovery anti-entropy pass.
    pub(crate) recovery_pushes: u64,
    /// Rollback targets re-emitted by recovery (the pending-rollback path).
    pub(crate) rollback_repushes: u64,
    /// Pushes the zombie incarnation attempted after resuming.
    pub(crate) zombie_pushes: u64,
    /// Zombie pushes fenced by the data plane's epoch floor.
    pub(crate) zombie_fenced: u64,
    /// Epoch of the crashed incarnation.
    pub(crate) epoch_before: u64,
    /// Epoch of the recovered incarnation.
    pub(crate) epoch_after: u64,
    /// Recovery resumed the in-flight wave (vs. aborting or idling).
    pub(crate) resumed_in_flight: bool,
    /// Rollbacks the recovered incarnation performed.
    pub(crate) rollbacks: u64,
    /// Every gateway runs this version at the horizon (0 = divergent).
    pub(crate) converged_version: u64,
    /// The fleet ended on more than one running version.
    pub(crate) divergent: bool,
    /// Gateways left running the poisoned version at the horizon.
    pub(crate) on_bad_version: u64,
    /// Records appended to the journal of record over the arm.
    pub(crate) journal_appended: u64,
    /// Journal records evicted into the replay checkpoint.
    pub(crate) journal_evicted: u64,
    /// Simulation events processed (deliveries, acks, faults, ticks).
    pub events: u64,
    /// Full fleet + controller + fault-state digest.
    pub(crate) state_digest: u64,
}

/// The journal-less comparison arm, priced analytically: a restart has no
/// intent record, so it re-pushes the whole fleet (double-exposing the
/// canary), and nothing fences the zombie.
#[derive(Debug, Clone)]
pub(crate) struct FailoverBaselineArm {
    /// Arm name.
    pub(crate) name: &'static str,
    /// Targets blind-re-pushed after the restart.
    pub(crate) restart_repushes: u64,
    /// Canary targets exposed to the same version twice.
    pub(crate) duplicate_exposures: u64,
    /// Zombie pushes that apply (no fence).
    pub(crate) zombie_applied: u64,
    /// Active config versions after the zombie race.
    pub(crate) versions_post_zombie: u64,
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Crash mid-wave of a healthy rollout; recovery resumes it.
    pub healthy: FailoverArmRun,
    /// Crash mid-rollback of a poisoned rollout; recovery completes it.
    pub rollback: FailoverArmRun,
    /// Zombie incarnation races the recovered controller; fencing wins.
    pub zombie: FailoverArmRun,
    /// Journal-less baselines (sidecar / ambient control planes).
    pub(crate) baselines: Vec<FailoverBaselineArm>,
}

impl FailoverOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for arm in [&self.healthy, &self.rollback, &self.zombie] {
            d.write_str(arm.name)
                .write_u64(arm.pushes_delivered)
                .write_u64(arm.commits)
                .write_u64(arm.nacks)
                .write_u64(arm.duplicate_exposures)
                .write_u64(arm.dropped_in_flight)
                .write_u64(arm.recovery_pushes)
                .write_u64(arm.rollback_repushes)
                .write_u64(arm.zombie_pushes)
                .write_u64(arm.zombie_fenced)
                .write_u64(arm.epoch_before)
                .write_u64(arm.epoch_after)
                .write_u64(u64::from(arm.resumed_in_flight))
                .write_u64(arm.rollbacks)
                .write_u64(arm.converged_version)
                .write_u64(u64::from(arm.divergent))
                .write_u64(arm.on_bad_version)
                .write_u64(arm.journal_appended)
                .write_u64(arm.journal_evicted)
                .write_u64(arm.events)
                .write_u64(arm.state_digest);
        }
        for b in &self.baselines {
            d.write_str(b.name)
                .write_u64(b.restart_repushes)
                .write_u64(b.duplicate_exposures)
                .write_u64(b.zombie_applied)
                .write_u64(b.versions_post_zombie);
        }
        d.value()
    }

    /// Whether the invariant `experiments failover` gates on holds: every
    /// clause of the failover claims, over the healthy-crash, rollback-crash
    /// and zombie arms.
    pub fn failover_ok(&self) -> bool {
        crate::scenario::Scenario::failures(self).is_empty()
    }

    /// The failover report's checks, each with the clauses it rests on.
    fn claims(&self) -> Vec<Claim> {
        let (h, r, z) = (&self.healthy, &self.rollback, &self.zombie);
        vec![
            Claim::new(
                "healthy crash: recovery resumes the wave, re-pushes only the orphans",
                "write-ahead journal + anti-entropy over fleet-reported versions",
                &format!(
                    "{} dropped, {} re-pushed, {} duplicate exposures, resumed: {}",
                    h.dropped_in_flight, h.recovery_pushes, h.duplicate_exposures, h.resumed_in_flight
                ),
                &[
                    ("healthy-crash: the crash orphans in-flight pushes", h.dropped_in_flight > 0),
                    ("healthy-crash: recovery resumes the in-flight wave", h.resumed_in_flight),
                    ("healthy-crash: recovery re-pushes the orphans", h.recovery_pushes > 0),
                    ("healthy-crash: no gateway is exposed twice", h.duplicate_exposures == 0),
                ],
            ),
            Claim::new(
                "healthy crash: fleet converges on exactly the new version, no rollback",
                "resumed rollout completes; the journal is the single source of intent",
                &format!(
                    "converged on v{} (divergent: {}), {} rollbacks, {} NACKs",
                    h.converged_version, h.divergent, h.rollbacks, h.nacks
                ),
                &[
                    ("healthy-crash: the fleet converges on v2", !h.divergent && h.converged_version == 2),
                    ("healthy-crash: nothing rolls back", h.rollbacks == 0),
                    ("healthy-crash: nothing is NACKed", h.nacks == 0),
                ],
            ),
            Claim::new(
                "rollback crash: the journaled rollback completes after restart",
                "pending-rollback replay: intent outlives the process",
                &format!(
                    "{} rollback re-pushes, {} gateways on the poisoned version, converged on v{}",
                    r.rollback_repushes, r.on_bad_version, r.converged_version
                ),
                &[
                    ("rollback-crash: the crash orphans the rollback pushes", r.dropped_in_flight > 0),
                    ("rollback-crash: recovery re-emits the journaled rollback", r.rollback_repushes > 0),
                    ("rollback-crash: no gateway is left on the poisoned version", r.on_bad_version == 0),
                    ("rollback-crash: the fleet converges back on v1", !r.divergent && r.converged_version == 1),
                ],
            ),
            Claim::new(
                "zombie: every stale-epoch push is fenced, zero divergence",
                "monotone epoch floor on every gateway; rollbacks are fenced too",
                &format!(
                    "{}/{} fenced, converged on v{} (divergent: {})",
                    z.zombie_fenced, z.zombie_pushes, z.converged_version, z.divergent
                ),
                &[
                    ("zombie: the old incarnation pushes", z.zombie_pushes > 0),
                    ("zombie: every zombie push is fenced", z.zombie_fenced == z.zombie_pushes),
                    ("zombie: the fleet converges on v2", !z.divergent && z.converged_version == 2),
                ],
            ),
            Claim::new(
                "every recovered incarnation runs at exactly epoch + 1",
                "begin_incarnation journals the fence before any push",
                &format!(
                    "healthy {}→{}, rollback {}→{}, zombie {}→{}",
                    h.epoch_before, h.epoch_after, r.epoch_before, r.epoch_after, z.epoch_before, z.epoch_after
                ),
                &[
                    ("healthy-crash: the recovered epoch is the old one plus one", h.epoch_after == h.epoch_before + 1),
                    ("rollback-crash: the recovered epoch is the old one plus one", r.epoch_after == r.epoch_before + 1),
                    ("zombie: the recovered epoch is the old one plus one", z.epoch_after == z.epoch_before + 1),
                ],
            ),
            Claim::unreported(&[("zombie: no gateway is exposed twice", z.duplicate_exposures == 0)]),
        ]
    }
}

/// A healthy config spec for `version`: all known services, non-empty
/// backend sets. Poison in this drill is *behavioral* (the version commits
/// but tanks canary health), so the bytes are always valid.
fn make_spec(version: u64) -> ConfigSpec {
    ConfigSpec {
        version,
        routes: (1..=SERVICES)
            .map(|s| RouteSpec {
                service: GlobalServiceId(s),
                backends: vec![1, 2],
            })
            .collect(),
    }
}

/// Run one scripted arm against the real fleet. Fully deterministic in
/// `seed`.
fn run_arm(seed: u64, params: &FailoverParams, scenario: Scenario) -> FailoverArmRun {
    let clock = params.clock();
    let tick = clock.tick();
    let plan = scripted_plan(scenario, &clock);
    let mut rng = SimRng::seed(seed ^ 0x000F_A110_4E12);

    // Ground truth: the DSL drives crash, restart and zombie onset.
    let mut state = FaultState::new(&FaultTopology { backends: Vec::new() });
    let mut pending_faults = plan.events();

    // The real data plane: one epoch-fencing ActiveConfig per gateway.
    let services = (1..=SERVICES).map(GlobalServiceId).collect();
    let mut fleet: Vec<ActiveConfig> = (0..FLEET).map(|_| ActiveConfig::new()).collect();

    // The controller under test, plus the paused incarnation a zombie
    // scenario resumes.
    let mut ctl: Option<RolloutController> =
        Some(RolloutController::new(params.rollout_cfg(), SimDuration::ZERO));
    if let Some(c) = ctl.as_mut() {
        for g in 0..FLEET as u32 {
            c.add_target(g);
        }
    }
    let mut zombie_ctl: Option<RolloutController> = None;
    let mut zombie_stash: Vec<Delivery> = Vec::new();

    // Southbound deliveries (with whether the resumed zombie sent them)
    // and northbound acks, each one tick on the wire.
    let mut pushes: DelayLine<(Delivery, bool)> = DelayLine::default();
    let mut acks: DelayLine<AckMsg> = DelayLine::default();
    let mut v1_begun = false;
    let mut v2_begun = false;
    // The version under test; in the rollback arm it is the poisoned one.
    let bad_version = 2u64;

    let mut m = FailoverArmRun {
        name: match scenario {
            Scenario::HealthyCrash => "healthy-crash",
            Scenario::RollbackCrash => "rollback-crash",
            Scenario::Zombie => "zombie",
        },
        pushes_delivered: 0,
        commits: 0,
        nacks: 0,
        duplicate_exposures: 0,
        dropped_in_flight: 0,
        recovery_pushes: 0,
        rollback_repushes: 0,
        zombie_pushes: 0,
        zombie_fenced: 0,
        epoch_before: 0,
        epoch_after: 0,
        resumed_in_flight: false,
        rollbacks: 0,
        converged_version: 0,
        divergent: false,
        on_bad_version: 0,
        journal_appended: 0,
        journal_evicted: 0,
        events: 0,
        state_digest: 0,
    };

    let enqueue = |pushes: &mut DelayLine<_>, due: SimTime, action: &RolloutAction, zombie: bool| {
        action.deliveries().for_each(|d| pushes.send(due, (d, zombie)));
    };

    for now in clock.ticks() {
        // 1. Scripted ground truth, and what changed this tick.
        let fired = state.apply_due(&mut pending_faults, now);
        m.events += fired.len() as u64;
        for ev in fired {
            match (ev.target, ev.kind) {
                // 2. Crash: the incarnation dies; everything in its send
                //    queue dies with it. The write-ahead journal already
                //    has every intent. A zombie scenario keeps the paused
                //    process (and its queue) around to resume later.
                (FaultTarget::ControlCrash, FaultKind::Crash) => {
                    let Some(c) = ctl.take() else { continue };
                    m.epoch_before = c.epoch();
                    let lost = std::mem::take(&mut pushes).arrived(SimTime::MAX);
                    m.dropped_in_flight += lost.len() as u64;
                    if scenario == Scenario::Zombie {
                        zombie_stash = lost.into_iter().map(|(d, _)| d).collect();
                    }
                    // The journal survives the process (it is written ahead
                    // of every push); recovery reads this copy. Outside the
                    // zombie scenario the old incarnation is its carrier
                    // only.
                    zombie_ctl = Some(c);
                    acks = DelayLine::default();
                }
                // 3. Restart: a new incarnation recovers from the journal
                //    plus the fleet's reported running versions, announces
                //    its fenced epoch to every gateway (the probe path),
                //    and applies the reconciliation actions.
                (FaultTarget::ControlCrash, FaultKind::Recover) if ctl.is_none() => {
                    let journal = zombie_ctl.as_ref().map(|c| c.journal().clone()).unwrap_or_default();
                    if scenario != Scenario::Zombie {
                        zombie_ctl = None;
                    }
                    let fleet_running: BTreeMap<u32, u64> = (0..FLEET as u32)
                        .map(|g| (g, fleet[g as usize].running_version().unwrap_or(0)))
                        .collect();
                    let (c, actions) = RolloutController::recover(
                        params.rollout_cfg(),
                        SimDuration::ZERO,
                        &journal,
                        &fleet_running,
                        now,
                    );
                    m.epoch_after = c.epoch();
                    m.resumed_in_flight =
                        matches!(c.phase(), RolloutPhase::Canary | RolloutPhase::Promoting { .. });
                    for ac in fleet.iter_mut() {
                        ac.observe_epoch(c.epoch());
                        m.events += 1;
                    }
                    for action in &actions {
                        for d in action.deliveries() {
                            if d.rollback {
                                m.rollback_repushes += 1;
                            } else {
                                m.recovery_pushes += 1;
                            }
                        }
                        enqueue(&mut pushes, now + tick, action, false);
                    }
                    ctl = Some(c);
                }
                // 4. Zombie resume: the paused incarnation flushes its
                //    stale send queue and starts ticking again at its old
                //    epoch.
                (FaultTarget::ControlZombie, FaultKind::Crash) => {
                    for d in zombie_stash.drain(..) {
                        pushes.send(now + tick, (d, true));
                    }
                }
                _ => {}
            }
        }

        // 5. Northbound acks (one-tick delay). An ack addressed to a dead
        //    or superseded incarnation is lost — exactly the window the
        //    journal's anti-entropy pass covers.
        for a in acks.arrived(now) {
            m.events += 1;
            if let Some(c) = ctl.as_mut() {
                if c.epoch() == a.epoch {
                    c.ack(a.target, a.version, now);
                }
            }
        }

        // 6. Rollout beats + live state machine. Poison is behavioral: the
        //    bad version commits cleanly but any gateway running it drags
        //    canary health through the floor.
        if let Some(c) = ctl.as_mut() {
            let mut actions = Vec::new();
            if !v1_begun && now >= clock.at(V1_S) {
                v1_begun = true;
                actions.extend(c.begin(now, true, HealthSample::HEALTHY, &mut rng));
            }
            if !v2_begun && now >= clock.at(V2_S) {
                v2_begun = true;
                actions.extend(c.begin(now, true, HealthSample::HEALTHY, &mut rng));
            }
            let poisoned_exposed = scenario == Scenario::RollbackCrash
                && fleet.iter().any(|ac| ac.running_version() == Some(bad_version));
            let health = if poisoned_exposed {
                HealthSample { error_rate: 0.25, p99: SimDuration::ZERO }
            } else {
                HealthSample::HEALTHY
            };
            actions.extend(c.tick(now, Some(health)));
            for action in &actions {
                enqueue(&mut pushes, now + tick, action, false);
            }
            m.events += 1;
        }

        // 7. The zombie keeps ticking at its old epoch: its ack timeout
        //    fires (it hears nothing) and it emits a version-legal
        //    rollback — the push the epoch fence exists for.
        if state.active(FaultTarget::ControlZombie) {
            if let Some(zc) = zombie_ctl.as_mut() {
                for action in &zc.tick(now, None) {
                    enqueue(&mut pushes, now + tick, action, true);
                }
                m.events += 1;
            }
        }

        // 8. Southbound deliveries: stage-fenced, then commit-or-NACK.
        for (p, zombie) in pushes.arrived(now) {
            m.events += 1;
            let ac = &mut fleet[p.target as usize];
            if zombie {
                m.zombie_pushes += 1;
            } else {
                m.pushes_delivered += 1;
                if ac.running_version().is_some_and(|v| v >= p.version) && !p.rollback {
                    m.duplicate_exposures += 1;
                }
            }
            let outcome = if p.rollback {
                ac.roll_back_to_fenced(now, make_spec(p.version), &services, p.epoch)
            } else {
                ac.stage_fenced(make_spec(p.version), p.epoch)
                    .and_then(|()| ac.commit(now, &services))
            };
            match outcome {
                Ok(v) => {
                    m.commits += 1;
                    acks.send(now + tick, AckMsg { target: p.target, version: v, epoch: p.epoch });
                }
                Err(Rejection::StaleEpoch { .. }) => {
                    if zombie {
                        m.zombie_fenced += 1;
                    } else {
                        m.nacks += 1;
                    }
                }
                Err(_) => {
                    if !zombie {
                        m.nacks += 1;
                        if let Some(c) = ctl.as_mut() {
                            c.nack(p.target, p.version);
                        }
                    }
                }
            }
        }
    }

    // Horizon accounting: fleet-wide convergence is judged from the
    // gateways themselves, not the controller's ack book.
    let versions: Vec<u64> = fleet.iter().map(|ac| ac.running_version().unwrap_or(0)).collect();
    let first = versions.first().copied().unwrap_or(0);
    m.divergent = !versions.iter().all(|&v| v == first);
    m.converged_version = if m.divergent { 0 } else { first };
    m.on_bad_version = if scenario == Scenario::RollbackCrash {
        versions.iter().filter(|&&v| v == bad_version).count() as u64
    } else {
        0
    };
    if let Some(c) = &ctl {
        m.rollbacks = c.rollbacks();
        m.journal_appended = c.journal().appended();
        let s = Stats::of(|s| c.fold(s));
        m.journal_evicted = s.get("journal.evicted").unwrap_or(0);
    }

    let mut d = Digest::new();
    for ac in &fleet {
        ac.fold(&mut d);
    }
    if let Some(c) = &ctl {
        c.fold(&mut d);
    }
    state.fold(&mut d);
    d.write_u64(m.pushes_delivered)
        .write_u64(m.commits)
        .write_u64(m.zombie_pushes)
        .write_u64(m.zombie_fenced);
    m.state_digest = d.value();
    m
}

/// The journal-less baselines, priced from the same fleet shape: a blind
/// restart re-pushes everything (the committed canary included), and with
/// no fence every zombie push applies, leaving two live versions.
fn baseline_arms(params: &FailoverParams, healthy: &FailoverArmRun, zombie: &FailoverArmRun) -> Vec<FailoverBaselineArm> {
    let canary = params.rollout_cfg().canary_size as u64;
    vec![
        FailoverBaselineArm {
            name: "istio-sidecar",
            restart_repushes: FLEET as u64,
            duplicate_exposures: canary + healthy.dropped_in_flight.min(1),
            zombie_applied: zombie.zombie_pushes,
            versions_post_zombie: 2,
        },
        FailoverBaselineArm {
            name: "ambient",
            restart_repushes: FLEET as u64,
            duplicate_exposures: canary,
            zombie_applied: zombie.zombie_pushes,
            versions_post_zombie: 2,
        },
    ]
}

/// Run all three arms. Fully deterministic in `seed`.
pub fn run_failover(seed: u64, params: &FailoverParams) -> FailoverOutcome {
    let healthy = run_arm(seed, params, Scenario::HealthyCrash);
    let rollback = run_arm(seed, params, Scenario::RollbackCrash);
    let zombie = run_arm(seed, params, Scenario::Zombie);
    let baselines = baseline_arms(params, &healthy, &zombie);
    FailoverOutcome { healthy, rollback, zombie, baselines }
}

/// The controller-failover drill.
impl crate::scenario::Scenario for FailoverOutcome {
    const ID: &'static str = "failover";
    const INVARIANT: &'static str =
        "controller failover: a crash mid-wave resumes from the journal re-pushing only orphans, a crashed rollback is completed, every zombie push is epoch-fenced";
    const OK_KEY: &'static str = "failover_ok";
    type Params = FailoverParams;

    fn params(fast: bool) -> FailoverParams {
        if fast { FailoverParams::fast() } else { FailoverParams::full() }
    }

    fn run(seed: u64, params: &FailoverParams) -> Self {
        run_failover(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        violated("failover", &self.claims())
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let arms = [&self.healthy, &self.rollback, &self.zombie].map(|a| {
            let arm = fields!(a => pushes_delivered, commits, nacks, duplicate_exposures,
                dropped_in_flight, recovery_pushes, rollback_repushes, zombie_pushes,
                zombie_fenced, epoch_before, epoch_after, resumed_in_flight, rollbacks,
                converged_version, divergent, on_bad_version, journal_appended, journal_evicted);
            (a.name, arm)
        });
        vec![("arms", Json::Obj(arms.into()))]
    }

    fn report(&self, _seed: u64, _params: &FailoverParams) -> ExperimentReport {
        report(self)
    }
}

fn report(outcome: &FailoverOutcome) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "failover",
        "controller crash recovery: journaled rollouts, epoch fencing, zombie race",
    );
    let (h, r, z) = (&outcome.healthy, &outcome.rollback, &outcome.zombie);

    let mut arms = Table::new(
        "controller failover by scenario",
        &["arm", "dropped in flight", "recovery pushes", "dup exposure", "zombie fenced", "converged on"],
    );
    for a in [h, r, z] {
        arms.row(&[
            a.name.to_string(),
            a.dropped_in_flight.to_string(),
            (a.recovery_pushes + a.rollback_repushes).to_string(),
            a.duplicate_exposures.to_string(),
            format!("{}/{}", a.zombie_fenced, a.zombie_pushes),
            if a.divergent { "divergent".to_string() } else { format!("v{}", a.converged_version) },
        ]);
    }
    report.tables.push(arms);

    let mut base = Table::new(
        "journal-less control planes (analytic)",
        &["arm", "restart re-pushes", "dup exposure", "zombie applied", "versions post-zombie"],
    );
    base.row(&[
        "canal".to_string(),
        (h.recovery_pushes + r.rollback_repushes).to_string(),
        h.duplicate_exposures.to_string(),
        (z.zombie_pushes - z.zombie_fenced).to_string(),
        "1".to_string(),
    ]);
    for b in &outcome.baselines {
        base.row(&[
            b.name.to_string(),
            b.restart_repushes.to_string(),
            b.duplicate_exposures.to_string(),
            b.zombie_applied.to_string(),
            b.versions_post_zombie.to_string(),
        ]);
    }
    report.tables.push(base);

    report.checks.extend(checks(outcome.claims()));
    report
}

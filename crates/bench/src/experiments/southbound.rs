//! The southbound vocabulary of the rollout-family experiments (`rollout`,
//! `policy`, `handshake`, `drill`, `failover`), stated once: the scaled
//! tick clock, the delayed channel a controller's deliveries travel on, one
//! delivery to a gateway's fail-static slot with the verdict it sends back,
//! and the fractional-rate accumulator of the tick-driven ones. For the two
//! blast-radius scenarios (`rollout`, `policy`) also the canal fleet, the
//! change schedule, the read-out of one poisoned change across the three
//! push strategies, and the clauses, table and checks both state about it.
//!
//! A scenario keeps its own loop, outcome type and digest field order; a
//! piece is here only because every user calls it the same way. The
//! controller side of the vocabulary is [`RolloutAction::deliveries`], the
//! fault side `canal_sim::faults::FaultState::apply_due`.

use crate::scenario::Claim;
use canal_control::versioned::TargetId;
use canal_control::{
    CertRotationController, ConfigPlane, Delivery, HealthSample, RolloutAction,
    RolloutController, RolloutResult,
};
use canal_gateway::{FailStatic, Plane, Rejection};
use canal_mesh::arch::{Architecture, ClusterShape};
use canal_sim::faults::FaultPlan;
use canal_sim::output::{num, pct, Table};
use canal_sim::{Fold, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

/// Operator detection delay for the blind-push arms (monitoring pipeline +
/// a human noticing), scaled by `time_scale`.
const DETECT_SECS: f64 = 15.0;
/// Ambient's per-waypoint push pacing (a policy constant, deliberately not
/// time-compressed so fast mode still shows partial exposure).
const AMBIENT_GAP_SECS: f64 = 1.0;
/// The availability SLO the budget-burn metric is charged against (99.9%).
const SLO_ERROR_BUDGET: f64 = 0.001;

/// A scenario's clock: scripted seconds, the tick period and the horizon
/// all shrink by the run's time compression.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickClock {
    time_scale: f64,
    tick: SimDuration,
    horizon: SimDuration,
}

impl TickClock {
    /// A clock ticking every `period` until `horizon` (both unscaled).
    pub(crate) fn new(time_scale: f64, period: SimDuration, horizon: SimDuration) -> Self {
        TickClock { time_scale, tick: period.scale(time_scale), horizon: horizon.scale(time_scale) }
    }

    /// The scaled tick period.
    pub(crate) fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The scaled horizon.
    pub(crate) fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Scripted second `secs` on the scaled timeline.
    pub(crate) fn at(&self, secs: f64) -> SimTime {
        SimTime::from_nanos((secs * self.time_scale * 1e9) as u64)
    }

    /// [`script`] on this clock's time compression.
    pub(crate) fn script<S: AsRef<str>>(&self, beats: &[(f64, S)]) -> FaultPlan {
        script(self.time_scale, beats)
    }

    /// [`ms`] on this clock's time compression.
    pub(crate) fn ms(&self, secs: f64) -> String {
        ms(self.time_scale, secs)
    }

    /// The `now` of every tick, from zero through the last one inside the
    /// horizon.
    pub(crate) fn ticks(&self) -> impl Iterator<Item = SimTime> {
        let tick = self.tick.as_nanos();
        (0..=self.horizon.as_nanos() / tick).map(move |step| SimTime::from_nanos(tick * step))
    }
}

/// The fault plan of a scenario's beats: `what` (the fault DSL's action and
/// target) at each scripted second, shrunk by `time_scale`, in the order
/// given. A beat the DSL rejects leaves the plan empty; `fig8` and `trace`,
/// which a fault-free run would still pass, hold the event count in their
/// `failures()`.
pub(crate) fn script<S: AsRef<str>>(time_scale: f64, beats: &[(f64, S)]) -> FaultPlan {
    let line = |(secs, what): &(f64, S)| format!("at {} {}\n", ms(time_scale, *secs), what.as_ref());
    FaultPlan::parse(&beats.iter().map(line).collect::<String>()).unwrap_or_default()
}

/// `secs` as a scaled duration of the fault DSL.
pub(crate) fn ms(time_scale: f64, secs: f64) -> String {
    format!("{}ms", (secs * 1000.0 * time_scale) as u64)
}

/// A channel with a propagation delay: what is sent arrives once, not
/// before it is due, in the order it was sent.
#[derive(Debug, Clone)]
pub(crate) struct DelayLine<T> {
    in_flight: Vec<(SimTime, T)>,
}

impl<T> Default for DelayLine<T> {
    fn default() -> Self {
        DelayLine { in_flight: Vec::new() }
    }
}

impl<T> DelayLine<T> {
    /// Put `msg` on the wire, to arrive at `due`.
    pub(crate) fn send(&mut self, due: SimTime, msg: T) {
        self.in_flight.push((due, msg));
    }

    /// Take off the wire everything due by `now`, in send order.
    pub(crate) fn arrived(&mut self, now: SimTime) -> Vec<T> {
        self.in_flight.extract_if(.., |(due, _)| *due <= now).map(|(_, msg)| msg).collect()
    }
}

/// Accumulates integral demand from a fractional per-tick rate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RateCarry {
    carry: f64,
}

impl RateCarry {
    pub(crate) fn take(&mut self, amount: f64) -> u64 {
        self.carry += amount;
        let whole = self.carry.floor();
        self.carry -= whole;
        whole as u64
    }
}

/// The controller side of a delivery: where a gateway's verdict goes.
pub(crate) trait Verdicts {
    /// `target` committed `version`.
    fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool;
    /// `target` refused `version`.
    fn nack(&mut self, target: TargetId, version: u64) -> bool;
}

impl Verdicts for RolloutController {
    fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        RolloutController::ack(self, target, version, now)
    }

    fn nack(&mut self, target: TargetId, version: u64) -> bool {
        RolloutController::nack(self, target, version)
    }
}

impl Verdicts for CertRotationController {
    fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        CertRotationController::ack(self, target, version, now)
    }

    fn nack(&mut self, target: TargetId, version: u64) -> bool {
        CertRotationController::nack(self, target, version)
    }
}

/// One southbound push: stage `spec` on the target's slot, commit it or
/// not, and tell the controller which. The ack carries the version the
/// gateway says it committed, the nack the version that was pushed.
pub(crate) fn deliver<P: Plane>(
    slot: &mut FailStatic<P>,
    spec: P::Spec,
    now: SimTime,
    ctx: P::Ctx<'_>,
    ctl: &mut impl Verdicts,
    target: TargetId,
) -> Result<u64, Rejection<P::Reject>> {
    let pushed = P::version(&spec);
    slot.stage(spec);
    let verdict = slot.commit(now, ctx);
    match verdict {
        Ok(committed) => ctl.ack(target, committed, now),
        Err(_) => ctl.nack(target, pushed),
    };
    verdict
}

/// The canal arm of a blast-radius run: the controller, one fail-static
/// slot per gateway with every version each ever committed, the changes the
/// run schedules, and what became of the two it is about (the versions cut
/// while the source was poisoned, and the one valid-but-harmful change the
/// canary must contain).
pub(crate) struct CanalArm<P: Plane> {
    pub(crate) ctl: RolloutController,
    pub(crate) slots: Vec<FailStatic<P>>,
    committed: Vec<BTreeSet<u64>>,
    pub(crate) nacks: u64,
    /// `(not before, harmful)`, in order; each begins once the controller
    /// is idle.
    schedule: Vec<(SimTime, bool)>,
    begun: usize,
    pub(crate) poisoned: BTreeSet<u64>,
    pub(crate) harmful: Option<u64>,
}

impl<P: Plane> CanalArm<P> {
    /// `ctl` over a fleet of `size` gateways, nothing committed yet.
    pub(crate) fn new(mut ctl: RolloutController, size: usize, schedule: Vec<(SimTime, bool)>) -> Self {
        (0..size as TargetId).for_each(|t| ctl.add_target(t));
        CanalArm {
            ctl,
            slots: (0..size).map(|_| FailStatic::new()).collect(),
            committed: vec![BTreeSet::new(); size],
            nacks: 0,
            schedule,
            begun: 0,
            poisoned: BTreeSet::new(),
            harmful: None,
        }
    }

    /// Begin the next scheduled change if it is due and nothing is in
    /// flight: the version cut (recorded as poisoned when the source is)
    /// and the controller's first actions for it.
    pub(crate) fn begin_due(
        &mut self,
        now: SimTime,
        source_poisoned: bool,
        baseline: HealthSample,
        rng: &mut SimRng,
    ) -> Option<(u64, Vec<RolloutAction>)> {
        let &(not_before, harmful) = self.schedule.get(self.begun)?;
        if now < not_before || self.ctl.in_flight() {
            return None;
        }
        self.begun += 1;
        let actions = self.ctl.begin(now, true, baseline, rng);
        let version = self.ctl.store().version();
        if source_poisoned {
            self.poisoned.insert(version);
        }
        if harmful {
            self.harmful = Some(version);
        }
        Some((version, actions))
    }

    /// Land one delivery on its target, `spec` being the real content of
    /// the delivered version (poisoned if it was cut poisoned, so a bad
    /// rollback target is validated and exposed like any push, not
    /// laundered into a good config). A push is committed or NACKed
    /// ([`deliver`]); a rollback restores unacknowledged, and a rollback to
    /// version 0 restores nothing: fail-static holds. Says whether the
    /// gateway now runs `spec`.
    pub(crate) fn apply(&mut self, d: Delivery, spec: P::Spec, now: SimTime, ctx: P::Ctx<'_>) -> bool {
        let slot = &mut self.slots[d.target as usize];
        let committed = if !d.rollback {
            let verdict = deliver(slot, spec, now, ctx, &mut self.ctl, d.target);
            self.nacks += u64::from(verdict.is_err());
            verdict.ok()
        } else if d.version == 0 {
            None
        } else {
            slot.roll_back_to(now, spec, ctx).ok()
        };
        if let Some(version) = committed {
            self.committed[d.target as usize].insert(version);
        }
        committed.is_some()
    }

    /// Gateways that ever committed a version `of_interest` holds for.
    fn ever_committed(&self, of_interest: impl Fn(u64) -> bool) -> usize {
        self.committed.iter().filter(|set| set.iter().any(|&v| of_interest(v))).count()
    }

    /// Gateways that ever committed the harmful change.
    pub(crate) fn harmful_exposed(&self) -> usize {
        self.harmful.map_or(0, |bad| self.ever_committed(|v| v == bad))
    }

    /// The run's read-out. The canal arm comes from the controller's audit
    /// log (the first rollout is the healthy one; the poisoned version's
    /// begin → terminal span is its time to rollback) and from what the
    /// fleet ever committed. The two blind-push arms are priced against the
    /// same arrivals: `at_risk` yields the instant and proxy of every
    /// request that errors if its proxy runs the bad change, shipped at
    /// `t_bad`, when it arrives.
    pub(crate) fn blast(
        &self,
        canary_size: usize,
        offered: u64,
        poison_errors: u64,
        time_scale: f64,
        t_bad: SimTime,
        at_risk: impl Iterator<Item = (SimTime, usize)> + Clone,
    ) -> Blast {
        let fleet = self.slots.len();
        let healthy = self.ctl.outcomes().front();
        let poison = self.ctl.outcomes().iter().find(|o| self.poisoned.contains(&o.version));
        let canal = ArmOutcome {
            name: "canal",
            fleet,
            exposed: self.ever_committed(|v| self.poisoned.contains(&v)),
            offered,
            errors: poison_errors,
            ttr_s: poison.map_or(f64::INFINITY, |o| o.ended_at.since(o.started_at).as_secs_f64()),
        };
        let ambient = ambient_arm(fleet, time_scale, t_bad, offered, at_risk.clone());
        let istio = istio_arm(fleet, time_scale, t_bad, offered, at_risk);
        Blast {
            arms: [canal, ambient, istio],
            fleet,
            canary_size,
            nacks: self.nacks,
            rollbacks: self.ctl.rollbacks(),
            healthy_converged: healthy.is_some_and(|o| o.result == RolloutResult::Converged),
            healthy_waves: healthy.map_or(0, |o| o.waves_pushed),
            healthy_exposed: healthy.map_or(0, |o| o.exposed_targets),
        }
    }
}

/// One arm's blast-radius measurements for the poisoned change.
#[derive(Debug, Clone)]
pub(crate) struct ArmOutcome {
    /// Arm name (`canal`, `ambient-waypoint`, `istio-full-push`).
    pub(crate) name: &'static str,
    /// Fleet size.
    pub(crate) fleet: usize,
    /// Proxies that ever *ran* (committed) the bad config.
    pub(crate) exposed: usize,
    /// Requests offered over the horizon.
    pub(crate) offered: u64,
    /// Requests that errored because their proxy ran the bad config.
    pub(crate) errors: u64,
    /// Seconds from the bad push starting to the last proxy back on good
    /// config (for canal: to the automatic rollback completing).
    pub(crate) ttr_s: f64,
}

impl ArmOutcome {
    /// Fraction of the fleet that ever ran the bad config.
    pub(crate) fn exposed_fraction(&self) -> f64 {
        if self.fleet == 0 {
            return 0.0;
        }
        self.exposed as f64 / self.fleet as f64
    }

    /// 1 − errors/offered.
    pub(crate) fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        1.0 - self.errors as f64 / self.offered as f64
    }

    /// Error budget burned: errors over the 99.9%-SLO allowance for the
    /// horizon (1.0 = the whole budget, >1 = blown).
    pub(crate) fn budget_burned(&self) -> f64 {
        let budget = (self.offered as f64 * SLO_ERROR_BUDGET).max(1.0);
        self.errors as f64 / budget
    }

    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { name, fleet, exposed, offered, errors, ttr_s } = self;
        f.write_str(name)
            .write_u64(*fleet as u64)
            .write_u64(*exposed as u64)
            .write_u64(*offered)
            .write_u64(*errors)
            .write_f64(*ttr_s);
    }
}

/// A column of the blast-radius table: its header and its cell for an arm.
pub(crate) type ArmColumn<'a> = (&'a str, fn(&ArmOutcome) -> String);

/// What `rollout` and `policy` both measure: one poisoned change pushed
/// three ways, and the healthy rollout that preceded it under canal.
#[derive(Debug, Clone)]
pub(crate) struct Blast {
    /// Per-arm results for the poisoned change, in canal / ambient / istio
    /// order.
    pub(crate) arms: [ArmOutcome; 3],
    /// Fleet size shared by every arm.
    pub(crate) fleet: usize,
    /// Canal's canary wave size.
    pub(crate) canary_size: usize,
    /// NACKs the canal gateways sent for the poisoned version.
    pub(crate) nacks: u64,
    /// Automatic rollbacks the controller performed.
    pub(crate) rollbacks: u64,
    /// Whether the initial healthy rollout converged fleet-wide.
    pub(crate) healthy_converged: bool,
    /// Waves the healthy rollout used.
    pub(crate) healthy_waves: usize,
    /// Targets the healthy rollout reached (must equal the fleet).
    pub(crate) healthy_exposed: usize,
}

impl Blast {
    /// The check that canal never commits the poisoned `what`.
    pub(crate) fn poison_claim(&self, what: &str) -> Claim {
        let canal = &self.arms[0];
        Claim::new(
            &format!("canal never commits the poisoned {what}"),
            "semantic validation NACKs at the canary; blast radius 0",
            &format!("{} of {} gateways, {} NACKs", canal.exposed, canal.fleet, self.nacks),
            &[
                ("canal never commits the poisoned version", canal.exposed == 0),
                ("the canary NACKs the poisoned version", self.nacks > 0),
            ],
        )
    }

    /// The check that canal serves through the poisoned change, in the
    /// caller's words.
    pub(crate) fn fail_static_claim(&self, name: &str, paper: &str, measured: &str) -> Claim {
        let clause = ("no request errors on the poisoned version under canal (fail-static)", self.arms[0].errors == 0);
        Claim::new(name, paper, measured, &[clause])
    }

    /// The check that the controller rolls back by itself.
    pub(crate) fn rollback_claim(&self, paper: &str) -> Claim {
        let clause = ("rollback is automatic, at least twice", self.rollbacks >= 2);
        Claim::new("rollback is automatic", paper, &format!("{} rollbacks", self.rollbacks), &[clause])
    }

    /// The blast-radius table, a row per arm; `extra` columns go before
    /// the time to rollback.
    pub(crate) fn table(&self, title: &str, extra: &[ArmColumn<'_>]) -> Table {
        let mut header = vec!["arm", "exposed", "fleet", "exposed %", "errors", "availability"];
        header.extend(extra.iter().map(|(name, _)| *name));
        header.push("ttr s");
        let mut table = Table::new(title, &header);
        for a in &self.arms {
            let mut row = vec![
                a.name.to_string(),
                a.exposed.to_string(),
                a.fleet.to_string(),
                pct(a.exposed_fraction()),
                a.errors.to_string(),
                pct(a.availability()),
            ];
            row.extend(extra.iter().map(|(_, cell)| cell(a)));
            row.push(num(a.ttr_s));
            table.row(&row);
        }
        table
    }

    /// The check that canal's healthy rollout converged, under the caller's
    /// `name` for it.
    pub(crate) fn healthy_claim(&self, name: &str) -> Claim {
        Claim::new(
            name,
            "canary then growing waves reach the whole fleet",
            &format!("{} waves over {} targets", self.healthy_waves, self.healthy_exposed),
            &[
                ("the healthy rollout converges", self.healthy_converged),
                ("the healthy rollout reaches the whole fleet", self.healthy_exposed == self.fleet),
                ("the healthy rollout takes a canary and at least two promotions", self.healthy_waves >= 3),
            ],
        )
    }

    /// The checks on the blind-push arms, in report order, and the clause
    /// on time to rollback that holds at any scale.
    pub(crate) fn blind_push_claims(&self) -> [Claim; 3] {
        let [canal, ambient, istio] = &self.arms;
        [
            Claim::new(
                "blind pushes burn the fleet",
                "istio exposes 100%; ambient halts mid-push (partial)",
                &format!(
                    "istio {} / ambient {} / canal {}",
                    istio.exposed, ambient.exposed, canal.exposed
                ),
                &[
                    ("istio exposes the whole fleet", istio.exposed == self.fleet),
                    ("ambient exposes less of the fleet than istio", ambient.exposed < istio.exposed),
                    ("ambient exposes more of the fleet than canal", ambient.exposed > canal.exposed),
                ],
            ),
            Claim::band(
                "canal time-to-rollback vs istio",
                "automatic NACK rollback ≪ operator detection",
                canal.ttr_s / istio.ttr_s.max(1e-9),
                0.0,
                0.1,
            ),
            Claim::unreported(&[("canal rolls back sooner than istio's operator", canal.ttr_s < istio.ttr_s)]),
        ]
    }
}

/// The istio arm: one full southbound push at `t_bad`, blind apply,
/// operator-scale detection, one full restore push.
fn istio_arm(
    fleet: usize,
    time_scale: f64,
    t_bad: SimTime,
    offered: u64,
    at_risk: impl Iterator<Item = (SimTime, usize)>,
) -> ArmOutcome {
    let push = ConfigPlane::new(Architecture::Sidecar)
        .push_update(&ClusterShape::production(fleet))
        .push_time
        .scale(time_scale);
    let detect = SimDuration::from_secs_f64(DETECT_SECS).scale(time_scale);
    let applied = t_bad + push;
    let restored = t_bad + detect + push;
    ArmOutcome {
        name: "istio-full-push",
        fleet,
        exposed: fleet,
        offered,
        errors: at_risk.filter(|&(at, _)| at >= applied && at < restored).count() as u64,
        ttr_s: (detect + push).as_secs_f64(),
    }
}

/// The ambient arm: per-waypoint sequential blind pushes from `t_bad`,
/// halted mid-flight at operator detection, sequential restore at the same
/// pace; the proxy of an at-risk request is the waypoint it lands on.
fn ambient_arm(
    fleet: usize,
    time_scale: f64,
    t_bad: SimTime,
    offered: u64,
    at_risk: impl Iterator<Item = (SimTime, usize)>,
) -> ArmOutcome {
    let gap = SimDuration::from_secs_f64(AMBIENT_GAP_SECS);
    let detect = SimDuration::from_secs_f64(DETECT_SECS).scale(time_scale);
    let exposed = ((detect.as_nanos() / gap.as_nanos()) as usize + 1).min(fleet);
    let halt = t_bad + detect;
    let errors = at_risk
        .filter(|&(at, gw)| {
            gw < exposed && at >= t_bad + gap.times(gw as u64) && at < halt + gap.times(gw as u64 + 1)
        })
        .count() as u64;
    ArmOutcome {
        name: "ambient-waypoint",
        fleet,
        exposed,
        offered,
        errors,
        ttr_s: (detect + gap.times(exposed as u64)).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing arrives early, everything arrives once, and arrivals keep
    /// send order among equal and unequal due times alike.
    #[test]
    fn delay_line_delivers_once_on_time_in_send_order() {
        let mut rng = SimRng::seed(0xDE1A);
        let mut line = DelayLine::default();
        let mut sent: Vec<(u64, usize)> = Vec::new();
        let mut got: Vec<usize> = Vec::new();
        for step in 0..200u64 {
            for _ in 0..rng.index(4) {
                // Dues repeat and cross: a later send may be due sooner.
                let due = step + rng.index(6) as u64;
                line.send(SimTime::from_nanos(due), sent.len());
                sent.push((due, sent.len()));
            }
            let arrived = line.arrived(SimTime::from_nanos(step));
            assert!(arrived.windows(2).all(|w| w[0] < w[1]), "send order at step {step}");
            // Polled every step, so on time means at its due step exactly.
            assert!(arrived.iter().all(|&id| sent[id].0 == step), "early or held back at {step}");
            got.extend(arrived);
        }
        got.extend(line.arrived(SimTime::MAX));
        got.sort_unstable();
        assert_eq!(got, (0..sent.len()).collect::<Vec<_>>(), "everything arrives exactly once");
    }
}

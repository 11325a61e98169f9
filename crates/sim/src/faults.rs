//! Deterministic fault injection (§4.2 / Fig. 8).
//!
//! A [`FaultPlan`] is an explicit list of typed [`FaultEvent`]s:
//! replica/backend/AZ crashes and recoveries, config-push stalls, key-server
//! outages and timeout spikes, per-link packet loss/latency degradation and
//! the control-plane outage vectors of §2.2. It is written as a
//! one-line-per-event scenario DSL ([`FaultPlan::parse`]), e.g.
//! `at 30s fail az 1` / `at 90s recover az 1`, so a Fig. 8-style walkthrough
//! is versionable text with no wall clock and no randomness in it.
//!
//! What a target *is* is stated once: a row of the private class table
//! (`CLASSES`: DSL token, operand shape, what `degrade` means for it, which
//! condition fields the state digest writes, and the constructor) plus its
//! arm of the one `match` that takes a [`FaultTarget`] apart (`parts`). The
//! parser and [`FaultState::fold`] are read off the table and a test
//! holds the README catalogue to it, so a new target is a variant, a row
//! and an arm.
//!
//! Plans schedule into a [`Simulation`] via [`FaultPlan::schedule_into`];
//! [`FaultState`] is the ground-truth bookkeeping a chaos model keeps while
//! events fire (who is *actually* down, independent of what the control
//! plane has detected so far — the gap between the two is exactly what the
//! resilience layer gets measured on).

use crate::engine::Simulation;
use crate::invariant::Fold;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// What a fault event targets. Identifiers are plain integers (backend key,
/// AZ index) because `canal-sim` is a leaf crate: the gateway layers map
/// them onto their own `BackendKey`/`AzId` types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// One replica VM of a backend.
    Replica {
        /// Owning backend key.
        backend: u32,
        /// Replica index within the backend.
        index: usize,
    },
    /// A whole backend (all replicas).
    Backend(u32),
    /// A whole availability zone (power-loss scenario).
    Az(u32),
    /// The control plane's config-push path (`control::configure`).
    ConfigPush,
    /// The config *content* pipeline: while failed, every config the
    /// controller emits is semantically invalid (a route to an unknown
    /// service, an empty backend set) — §2.2's "bad config" outage vector.
    /// Data planes are expected to NACK it instead of applying it.
    ConfigPoison,
    /// The multi-tenant key server (`crypto::keyserver`).
    KeyServer,
    /// The cert-issuance clock: while failed (or degraded with `extra`),
    /// every cert bundle the rotation controller cuts carries a skewed
    /// `not_after` (already in the past, or behind the fleet clock by
    /// `extra`) — data planes are expected to NACK it at commit validation.
    CertExpirySkew,
    /// A tenant's CA private key is compromised: the incident response
    /// revokes every cert the current generation signed, forcing the whole
    /// tenant through re-issuance + full handshakes at once.
    CaCompromiseRevoke(u32),
    /// Synchronized restart of every pod in an AZ (kernel patch wave,
    /// hypervisor reboot): all connections and resumption tickets in the
    /// zone are lost at one instant, flooding the key server with *full*
    /// handshakes.
    AzMassRestart(u32),
    /// The inter-AZ link between two zones (undirected).
    Link {
        /// One endpoint AZ.
        a: u32,
        /// The other endpoint AZ.
        b: u32,
    },
    /// One *direction* of an inter-AZ link: traffic `from → to` is lost or
    /// delayed while `to → from` stays clean. This is the asymmetric
    /// partition that defeats symmetric health checks — A can't reach B but
    /// B's probes of A still succeed.
    LinkDirected {
        /// Sending AZ (the degraded direction's source).
        from: u32,
        /// Receiving AZ.
        to: u32,
    },
    /// Gray failure of a gateway: the target keeps answering health probes
    /// normally while *real* requests error (`loss`) and/or slow (`extra`).
    /// `fail` means every real request errors; probes stay green either way.
    GrayDegrade(u32),
    /// Control-plane partition: the gateway is unreachable from
    /// `canal-control` (no config pushes, no ACK/NACK returns) while its
    /// *data path* keeps serving whatever config it last committed.
    ControlPartition(u32),
    /// The network-policy *content* pipeline: while failed, every policy
    /// spec the controller emits is semantically invalid (an inverted
    /// port range, a non-canonical CIDR) — the policy-plane twin of
    /// [`ConfigPoison`](FaultTarget::ConfigPoison). Data planes are
    /// expected to NACK it instead of applying it.
    PolicyPoison,
    /// The rollout controller process itself dies mid-wave and restarts
    /// later from its journal. In the DSL, `fail control-crash <dur>`
    /// expands into a `Crash` at `t` plus an auto-generated `Recover` at
    /// `t + dur` — the restart — so a script line models the full
    /// crash/recover cycle the failover drill measures.
    ControlCrash,
    /// A **zombie** controller incarnation: the pre-crash process was
    /// paused (GC, VM migration, partitioned), not dead, and resumes
    /// pushing with its stale epoch concurrently with the restarted
    /// controller. Data planes are expected to fence every stale-epoch
    /// push (`StaleEpoch` NACK), never apply it.
    ControlZombie,
}

/// What happens to the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hard outage: the target stops serving entirely.
    Crash,
    /// The target returns to full health (clears crashes *and* degradation).
    Recover,
    /// Partial degradation with a magnitude: `loss` is a packet-loss
    /// probability (links), `extra` is added latency (links), push delay
    /// (config path) or timeout (key server).
    Degrade {
        /// Packet-loss probability in `[0, 1]` (links only; 0 elsewhere).
        loss: f64,
        /// Added latency / stall duration, by target.
        extra: SimDuration,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What it hits.
    pub target: FaultTarget,
    /// What happens.
    pub kind: FaultKind,
}

/// A parse error from the scenario DSL, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line in the script.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault script line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScriptError {}

/// One backend of the simulated topology (for [`FaultState`] liveness
/// queries).
#[derive(Debug, Clone, Copy)]
pub struct BackendSpec {
    /// Backend key.
    pub id: u32,
    /// AZ the backend lives in.
    pub az: u32,
    /// Replica count.
    pub replicas: usize,
}

/// The failure-domain topology a plan runs against.
#[derive(Debug, Clone, Default)]
pub struct FaultTopology {
    /// All backends, with AZ and replica count.
    pub backends: Vec<BackendSpec>,
}

/// How a class's operand is written in the DSL (and in the README table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// The class has one member and takes no operand.
    None,
    /// `<id>`.
    Id(&'static str),
    /// `<x><sep><y>`.
    Pair(&'static str, char, &'static str),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::None => write!(f, "—"),
            Operand::Id(id) => write!(f, "<{id}>"),
            Operand::Pair(x, sep, y) => write!(f, "<{x}>{sep}<{y}>"),
        }
    }
}

/// Which magnitudes `degrade` writes for a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Degrade {
    /// The class is binary (up or down): `degrade` is a script error, and a
    /// hand-built `Degrade` event is ignored.
    Nothing,
    /// A stall or skew duration.
    Extra,
    /// A loss probability and an added latency.
    LossExtra,
}

/// One word of a target's [`Condition`] in the state digest.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// Whether the target is in `FaultState::active` at all.
    Active,
    Crashed,
    Loss,
    Extra,
}

/// Everything the module knows about one class of target.
struct Class {
    /// The DSL token.
    token: &'static str,
    operand: Operand,
    degrade: Degrade,
    /// What [`FaultState::fold`] writes after the operands.
    digest: &'static [Field],
    /// The member with these operands (as many as `operand` has).
    make: fn(u32, u32) -> FaultTarget,
}

/// The target catalogue, in the order of the README table and of the
/// sections of [`FaultState::fold`]. `parts` indexes it.
static CLASSES: [Class; 16] = [
    Class {
        token: "replica",
        operand: Operand::Pair("backend", '/', "index"),
        degrade: Degrade::Nothing,
        digest: &[],
        make: |backend, index| FaultTarget::Replica { backend, index: index as usize },
    },
    Class {
        token: "backend",
        operand: Operand::Id("id"),
        degrade: Degrade::Nothing,
        digest: &[],
        make: |id, _| FaultTarget::Backend(id),
    },
    Class {
        token: "az",
        operand: Operand::Id("id"),
        degrade: Degrade::Nothing,
        digest: &[],
        make: |id, _| FaultTarget::Az(id),
    },
    Class {
        token: "config-push",
        operand: Operand::None,
        degrade: Degrade::Extra,
        digest: &[Field::Crashed, Field::Extra],
        make: |_, _| FaultTarget::ConfigPush,
    },
    Class {
        token: "config-poison",
        operand: Operand::None,
        degrade: Degrade::Nothing,
        digest: &[Field::Crashed],
        make: |_, _| FaultTarget::ConfigPoison,
    },
    Class {
        token: "policy-poison",
        operand: Operand::None,
        degrade: Degrade::Nothing,
        digest: &[Field::Crashed],
        make: |_, _| FaultTarget::PolicyPoison,
    },
    Class {
        token: "key-server",
        operand: Operand::None,
        degrade: Degrade::Extra,
        digest: &[Field::Crashed, Field::Extra],
        make: |_, _| FaultTarget::KeyServer,
    },
    Class {
        token: "cert-expiry-skew",
        operand: Operand::None,
        degrade: Degrade::Extra,
        digest: &[Field::Active, Field::Extra],
        make: |_, _| FaultTarget::CertExpirySkew,
    },
    Class {
        token: "ca-compromise-revoke",
        operand: Operand::Id("tenant"),
        degrade: Degrade::Nothing,
        digest: &[],
        make: |tenant, _| FaultTarget::CaCompromiseRevoke(tenant),
    },
    Class {
        token: "az-mass-restart",
        operand: Operand::Id("az"),
        degrade: Degrade::Nothing,
        digest: &[],
        make: |az, _| FaultTarget::AzMassRestart(az),
    },
    Class {
        token: "link",
        operand: Operand::Pair("azA", '-', "azB"),
        degrade: Degrade::LossExtra,
        digest: &[Field::Crashed, Field::Loss, Field::Extra],
        make: |a, b| FaultTarget::Link { a, b },
    },
    Class {
        token: "link-directed",
        operand: Operand::Pair("from", '>', "to"),
        degrade: Degrade::LossExtra,
        digest: &[Field::Crashed, Field::Loss, Field::Extra],
        make: |from, to| FaultTarget::LinkDirected { from, to },
    },
    Class {
        token: "gray",
        operand: Operand::Id("gateway"),
        degrade: Degrade::LossExtra,
        digest: &[Field::Loss, Field::Extra],
        make: |gateway, _| FaultTarget::GrayDegrade(gateway),
    },
    Class {
        token: "control-partition",
        operand: Operand::Id("gateway"),
        degrade: Degrade::Nothing,
        digest: &[],
        make: |gateway, _| FaultTarget::ControlPartition(gateway),
    },
    Class {
        token: "control-crash",
        operand: Operand::None,
        degrade: Degrade::Nothing,
        digest: &[Field::Crashed],
        make: |_, _| FaultTarget::ControlCrash,
    },
    Class {
        token: "control-zombie",
        operand: Operand::None,
        degrade: Degrade::Nothing,
        digest: &[Field::Crashed],
        make: |_, _| FaultTarget::ControlZombie,
    },
];

impl Class {
    /// The words of one member's condition (`None`: an inactive singleton).
    fn fold_condition(&self, f: &mut impl Fold, cond: Option<&Condition>) {
        let c = cond.copied().unwrap_or_default();
        for field in self.digest {
            match field {
                Field::Active => f.write_u64(cond.is_some() as u64),
                Field::Crashed => f.write_u64(c.crashed as u64),
                Field::Loss => f.write_f64(c.loss),
                Field::Extra => f.write_u64(c.extra.as_nanos()),
            };
        }
    }
}

/// The one place a target is taken apart: its row of [`CLASSES`] and its
/// operands (zero where the class has fewer than two).
fn parts(target: FaultTarget) -> (&'static Class, u32, u32) {
    let (row, x, y) = match target {
        FaultTarget::Replica { backend, index } => (0, backend, index as u32),
        FaultTarget::Backend(id) => (1, id, 0),
        FaultTarget::Az(id) => (2, id, 0),
        FaultTarget::ConfigPush => (3, 0, 0),
        FaultTarget::ConfigPoison => (4, 0, 0),
        FaultTarget::PolicyPoison => (5, 0, 0),
        FaultTarget::KeyServer => (6, 0, 0),
        FaultTarget::CertExpirySkew => (7, 0, 0),
        FaultTarget::CaCompromiseRevoke(tenant) => (8, tenant, 0),
        FaultTarget::AzMassRestart(az) => (9, az, 0),
        FaultTarget::Link { a, b } => (10, a, b),
        FaultTarget::LinkDirected { from, to } => (11, from, to),
        FaultTarget::GrayDegrade(gateway) => (12, gateway, 0),
        FaultTarget::ControlPartition(gateway) => (13, gateway, 0),
        FaultTarget::ControlCrash => (14, 0, 0),
        FaultTarget::ControlZombie => (15, 0, 0),
    };
    (&CLASSES[row], x, y)
}

/// An ordered, reproducible fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Spans the DSL accepts end (exclusively) at half the clock's range, so that
/// the sum of two parsed durations (`at` plus a restart delay) cannot
/// overflow.
const SCRIPT_NANOS_END: f64 = (1u64 << 63) as f64;

fn parse_duration(s: &str) -> Option<SimDuration> {
    // Suffix order matters: try the longer units first so "ms" is not read
    // as "m"+"s" and "us"/"ns" are not read as "s".
    for (suffix, to_ns) in [("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)] {
        if let Some(num) = s.strip_suffix(suffix) {
            // "10us" must not match the "s" arm with num="10u".
            let nanos = num.parse::<f64>().ok()? * to_ns;
            // `contains` is false for NaN; "inf" and "1e30" are out of range.
            return (0.0..SCRIPT_NANOS_END)
                .contains(&nanos)
                .then(|| SimDuration::from_nanos(nanos.round() as u64));
        }
    }
    None
}

fn parse_loss(s: &str) -> Option<f64> {
    let v: f64 = if let Some(pct) = s.strip_suffix('%') {
        pct.parse::<f64>().ok()? / 100.0
    } else {
        s.parse().ok()?
    };
    (0.0..=1.0).contains(&v).then_some(v)
}

fn err(line: usize, msg: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        msg: msg.into(),
    }
}

fn parse_target(words: &mut std::slice::Iter<'_, &str>, lineno: usize) -> Result<FaultTarget, ScriptError> {
    let what = words
        .next()
        .ok_or_else(|| err(lineno, "missing target after action"))?;
    let class = CLASSES
        .iter()
        .find(|c| c.token == *what)
        .ok_or_else(|| err(lineno, format!("unknown target `{what}`")))?;
    let Class { token, operand, .. } = class;
    let id = |s: &str| {
        s.parse::<u32>()
            .map_err(|_| err(lineno, format!("bad {token} operand `{s}` (want {operand})")))
    };
    let mut spec = || {
        words
            .next()
            .ok_or_else(|| err(lineno, format!("{token} needs {operand}")))
    };
    let (x, y) = match *operand {
        Operand::None => (0, 0),
        Operand::Id(_) => (id(spec()?)?, 0),
        Operand::Pair(_, sep, _) => {
            let spec = spec()?;
            let (x, y) = spec.split_once(sep).ok_or_else(|| {
                err(lineno, format!("bad {token} spec `{spec}` (want {operand})"))
            })?;
            (id(x)?, id(y)?)
        }
    };
    Ok((class.make)(x, y))
}

impl FaultPlan {
    /// Parse the scenario DSL. One event per line:
    ///
    /// ```text
    /// # AZ-1 power loss at t=30s, recover at t=90s
    /// at 30s fail az 1
    /// at 90s recover az 1
    /// at 10s fail replica 2/0
    /// at 40s fail backend 3
    /// at 20s degrade link 0-1 loss 5% extra 2ms
    /// at 50s degrade config-push extra 5s
    /// at 55s fail config-poison
    /// at 57s fail policy-poison
    /// at 60s degrade key-server extra 15ms
    /// at 70s degrade cert-expiry-skew extra 90s
    /// at 80s fail ca-compromise-revoke 3
    /// at 85s fail az-mass-restart 1
    /// at 86s degrade link-directed 1>0 loss 80%   # A→B only; B→A clean
    /// at 87s degrade gray 2 loss 60% extra 10ms   # probes stay green
    /// at 88s fail control-partition 2             # unreachable from control
    /// at 89s fail control-crash 20s               # dies now, restarts at 109s
    /// at 90s fail control-zombie                  # stale incarnation pushes
    /// ```
    ///
    /// Durations take `ns`/`us`/`ms`/`s` suffixes; loss takes a fraction or
    /// a percentage. `fail` is a hard crash; `degrade` needs `loss` and/or
    /// `extra`, and only the magnitudes the target has (a binary target
    /// such as `az` has none); `recover` clears both.
    pub fn parse(script: &str) -> Result<Self, ScriptError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in script.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let mut it = words.iter();
            match it.next() {
                Some(&"at") => {}
                _ => return Err(err(lineno, "line must start with `at <time>`")),
            }
            let at_str = it.next().ok_or_else(|| err(lineno, "missing time"))?;
            let offset = parse_duration(at_str)
                .ok_or_else(|| err(lineno, format!("bad time `{at_str}`")))?;
            let at = SimTime::ZERO + offset;
            let action = *it.next().ok_or_else(|| err(lineno, "missing action"))?;
            let target = parse_target(&mut it, lineno)?;
            let kind = match action {
                "fail" => FaultKind::Crash,
                "recover" => FaultKind::Recover,
                "degrade" => {
                    let (class, ..) = parts(target);
                    let mut loss = 0.0;
                    let mut extra = SimDuration::ZERO;
                    let mut saw_any = false;
                    while let Some(key) = it.next() {
                        let value = it
                            .next()
                            .ok_or_else(|| err(lineno, format!("`{key}` needs a value")))?;
                        match (*key, class.degrade) {
                            ("loss", Degrade::LossExtra) => {
                                loss = parse_loss(value).ok_or_else(|| {
                                    err(lineno, format!("bad loss `{value}`"))
                                })?;
                            }
                            ("extra", Degrade::Extra | Degrade::LossExtra) => {
                                extra = parse_duration(value).ok_or_else(|| {
                                    err(lineno, format!("bad duration `{value}`"))
                                })?;
                            }
                            // Accepting a magnitude the target does not
                            // have would script a fault that does nothing.
                            ("loss" | "extra", _) => {
                                let token = class.token;
                                return Err(err(lineno, format!("`{token}` has no `{key}` to degrade")));
                            }
                            (other, _) => {
                                return Err(err(lineno, format!("unknown key `{other}`")))
                            }
                        }
                        saw_any = true;
                    }
                    if !saw_any {
                        return Err(err(lineno, "degrade needs `loss ...` and/or `extra ...`"));
                    }
                    FaultKind::Degrade { loss, extra }
                }
                other => return Err(err(lineno, format!("unknown action `{other}`"))),
            };
            plan.events.push(FaultEvent { at, target, kind });
            // `fail control-crash <dur>` is sugar for the full cycle: the
            // controller dies now and its restart is the auto-generated
            // recover at `t + dur` — one script line, two events.
            if target == FaultTarget::ControlCrash && kind == FaultKind::Crash {
                let dur_str = it.next().ok_or_else(|| {
                    err(lineno, "control-crash needs a restart duration")
                })?;
                let dur = parse_duration(dur_str)
                    .ok_or_else(|| err(lineno, format!("bad duration `{dur_str}`")))?;
                plan.events.push(FaultEvent {
                    at: at + dur,
                    target,
                    kind: FaultKind::Recover,
                });
            }
            if it.next().is_some() {
                return Err(err(lineno, "trailing tokens"));
            }
        }
        plan.events.sort_by_key(|e| e.at);
        Ok(plan)
    }

    /// The events, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// When the plan first does `kind` to `target`, if it ever does: e.g.
    /// `(ConfigPoison, Crash)` is when the bad change ships.
    pub fn first(&self, target: FaultTarget, kind: FaultKind) -> Option<SimTime> {
        self.events.iter().find(|e| e.target == target && e.kind == kind).map(|e| e.at)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule every event into a simulation, wrapping each in the model's
    /// own event type. `wrap` receives the plan index so the model can look
    /// the event back up when it fires.
    pub fn schedule_into<E>(
        &self,
        sim: &mut Simulation<E>,
        mut wrap: impl FnMut(usize, &FaultEvent) -> E,
    ) {
        for (i, ev) in self.events.iter().enumerate() {
            sim.schedule(ev.at, wrap(i, ev));
        }
    }
}

/// What is wrong with a target while it is in [`FaultState`]'s `active`
/// map: hard-down, and/or degraded by the magnitudes its class has.
#[derive(Debug, Clone, Copy, Default)]
struct Condition {
    crashed: bool,
    loss: f64,
    extra: SimDuration,
}

/// Ground-truth fault bookkeeping while a plan's events fire.
///
/// This is what is *actually* down — the control plane's detected view
/// (e.g. `PlacementView`) lags behind it by the detection delay, and the
/// resilience layer's job is to mask that gap.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    az_of: BTreeMap<u32, u32>,
    replicas: BTreeMap<u32, usize>,
    /// Every target failed or degraded since its last recovery. Some
    /// conditions are instants with lasting damage (`az-mass-restart`,
    /// `ca-compromise-revoke`): the model reacts when the event fires and
    /// the entry stays until the script recovers it.
    active: BTreeMap<FaultTarget, Condition>,
}

/// The key a target is filed under: an undirected link is the same link
/// from either end, low AZ first.
fn keyed(target: FaultTarget) -> FaultTarget {
    match target {
        FaultTarget::Link { a, b } if a > b => FaultTarget::Link { a: b, b: a },
        other => other,
    }
}

impl FaultState {
    /// Fresh state (everything healthy) over a topology.
    pub fn new(topo: &FaultTopology) -> Self {
        FaultState {
            az_of: topo.backends.iter().map(|b| (b.id, b.az)).collect(),
            replicas: topo.backends.iter().map(|b| (b.id, b.replicas)).collect(),
            active: BTreeMap::new(),
        }
    }

    /// The plan cursor of a tick-driven model: apply the leading events of
    /// `pending` (what is left of [`FaultPlan::events`]) that are due by
    /// `now`, in plan order, leave the rest in `pending`, and hand back the
    /// ones that fired: the transitions of this tick, as values. The
    /// position is the caller's slice, not state of this struct, whose
    /// digest is the ground truth alone.
    pub fn apply_due<'a>(&mut self, pending: &mut &'a [FaultEvent], now: SimTime) -> &'a [FaultEvent] {
        let due = pending.iter().take_while(|e| e.at <= now).count();
        let (fired, rest) = pending.split_at(due);
        fired.iter().for_each(|e| self.apply(e));
        *pending = rest;
        fired
    }

    /// Apply one fired event.
    pub fn apply(&mut self, ev: &FaultEvent) {
        let target = keyed(ev.target);
        match ev.kind {
            // A hard gray failure errors every real request while probes
            // stay green, so it is a loss of 1, not a crash.
            FaultKind::Crash if matches!(target, FaultTarget::GrayDegrade(_)) => {
                self.active.insert(target, Condition { loss: 1.0, ..Condition::default() });
            }
            FaultKind::Crash => self.active.entry(target).or_default().crashed = true,
            FaultKind::Recover => {
                self.active.remove(&target);
                // A recovered backend comes back with all its replicas.
                if let FaultTarget::Backend(b) = target {
                    self.active
                        .retain(|t, _| !matches!(t, FaultTarget::Replica { backend, .. } if *backend == b));
                }
            }
            FaultKind::Degrade { loss, extra } => match parts(target).0.degrade {
                Degrade::Nothing => {}
                Degrade::Extra => self.active.entry(target).or_default().extra = extra,
                Degrade::LossExtra => {
                    let cond = self.active.entry(target).or_default();
                    (cond.loss, cond.extra) = (loss, extra);
                }
            },
        }
    }

    fn condition(&self, target: FaultTarget) -> Option<&Condition> {
        self.active.get(&keyed(target))
    }

    /// Whether `target` has been failed or degraded since it last
    /// recovered (e.g. a gray gateway, a skewed issuance clock).
    pub fn active(&self, target: FaultTarget) -> bool {
        self.condition(target).is_some()
    }

    /// Whether `target` is hard-down: a crashed AZ, a blocked push path, a
    /// poisoned pipeline, a partitioned gateway, a dead controller.
    pub fn crashed(&self, target: FaultTarget) -> bool {
        self.condition(target).is_some_and(|c| c.crashed)
    }

    /// The loss probability at `target` (a link's packets, a gray
    /// gateway's real requests). A crashed target loses everything.
    pub fn loss(&self, target: FaultTarget) -> f64 {
        self.condition(target).map_or(0.0, |c| if c.crashed { 1.0 } else { c.loss })
    }

    /// The added latency, stall or skew at `target` (zero when healthy).
    pub fn extra(&self, target: FaultTarget) -> SimDuration {
        self.condition(target).map_or(SimDuration::ZERO, |c| c.extra)
    }

    /// Whether one replica is actually serving (itself, its backend and its
    /// AZ are all up).
    pub fn replica_up(&self, backend: u32, index: usize) -> bool {
        !self.crashed(FaultTarget::Replica { backend, index })
            && !self.crashed(FaultTarget::Backend(backend))
            && self.az_of.get(&backend).is_none_or(|az| !self.crashed(FaultTarget::Az(*az)))
    }

    /// Whether a backend has at least one live replica (and is itself up,
    /// in an up AZ).
    pub fn backend_up(&self, backend: u32) -> bool {
        let n = self.replicas.get(&backend).copied().unwrap_or(0);
        (0..n).any(|r| self.replica_up(backend, r))
    }

    /// Packet-loss probability for traffic `from → to`: the worse of the
    /// undirected link state and any directed degradation of exactly this
    /// direction. `directed_link_loss(a, b)` and `directed_link_loss(b, a)`
    /// differ under an asymmetric partition — that asymmetry is the point.
    pub fn directed_link_loss(&self, from: u32, to: u32) -> f64 {
        self.loss(FaultTarget::Link { a: from, b: to })
            .max(self.loss(FaultTarget::LinkDirected { from, to }))
    }

    /// Added latency for traffic `from → to` (worse of undirected and
    /// directed state).
    pub fn directed_link_extra(&self, from: u32, to: u32) -> SimDuration {
        self.extra(FaultTarget::Link { a: from, b: to })
            .max(self.extra(FaultTarget::LinkDirected { from, to }))
    }

    /// The gateways currently partitioned from the control plane,
    /// ascending.
    pub fn partitioned_targets(&self) -> impl Iterator<Item = u32> + '_ {
        self.active.keys().filter_map(|t| match t {
            FaultTarget::ControlPartition(g) => Some(*g),
            _ => None,
        })
    }

    /// Fold the ground-truth fault picture into a digest: the `az_of` /
    /// `replicas` topology view, then `active` class by class in
    /// [`CLASSES`] order. A class with an operand is a section (member
    /// count, then each member's operands and the condition fields its row
    /// names, ascending); a singleton is just its fields, written whether
    /// or not it is active. Three scenario digests contain this one, so the
    /// words and their order are contract.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { az_of, replicas, active } = self;
        f.write_u64(az_of.len() as u64);
        for (&b, &az) in az_of {
            f.write_u64(b as u64).write_u64(az as u64);
        }
        f.write_u64(replicas.len() as u64);
        for (&b, &n) in replicas {
            f.write_u64(b as u64).write_u64(n as u64);
        }
        for class in &CLASSES {
            let mut members = active.iter().filter(|(t, _)| std::ptr::eq(parts(**t).0, class));
            if class.operand == Operand::None {
                class.fold_condition(f, members.next().map(|(_, cond)| cond));
                continue;
            }
            f.write_u64(members.clone().count() as u64);
            for (&target, cond) in members {
                let (_, x, y) = parts(target);
                f.write_u64(x as u64);
                if let Operand::Pair(..) = class.operand {
                    f.write_u64(y as u64);
                }
                class.fold_condition(f, Some(cond));
            }
        }
    }

    /// Whether anything at all is degraded or down.
    pub fn any_active(&self) -> bool {
        !self.active.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::Digest;
    use crate::rng::SimRng;
    use std::collections::BTreeSet;

    fn topo() -> FaultTopology {
        FaultTopology {
            backends: vec![
                BackendSpec { id: 0, az: 0, replicas: 2 },
                BackendSpec { id: 1, az: 0, replicas: 2 },
                BackendSpec { id: 2, az: 1, replicas: 2 },
            ],
        }
    }

    fn ev(target: FaultTarget, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime::ZERO, target, kind }
    }

    fn fail(target: FaultTarget) -> FaultEvent {
        ev(target, FaultKind::Crash)
    }

    fn recover(target: FaultTarget) -> FaultEvent {
        ev(target, FaultKind::Recover)
    }

    fn degrade(target: FaultTarget, loss: f64, extra_ms: u64) -> FaultEvent {
        ev(target, FaultKind::Degrade { loss, extra: SimDuration::from_millis(extra_ms) })
    }

    fn digest(st: &FaultState) -> u64 {
        Digest::of(|f| st.fold(f)).value()
    }

    fn live_replicas(st: &FaultState, backend: u32) -> usize {
        (0..2).filter(|&r| st.replica_up(backend, r)).count()
    }

    #[test]
    fn dsl_round_trip_core_forms() {
        let plan = FaultPlan::parse(
            "# scripted Fig. 8 outage\n\
             at 10s fail replica 2/0\n\
             at 12s recover replica 2/0\n\
             at 30s fail az 1   # power loss\n\
             at 90s recover az 1\n\
             at 20s degrade link 0-1 loss 5% extra 2ms\n\
             at 25s recover link 0-1\n\
             at 50s degrade config-push extra 5s\n\
             at 60s degrade key-server extra 15ms\n\
             at 70s fail key-server\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 9);
        // Sorted by time regardless of script order.
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        let link = plan
            .events()
            .iter()
            .find(|e| matches!(e.target, FaultTarget::Link { .. }))
            .unwrap();
        assert_eq!(
            link.kind,
            FaultKind::Degrade {
                loss: 0.05,
                extra: SimDuration::from_millis(2)
            }
        );
    }

    #[test]
    fn dsl_lifecycle_targets_parse_and_apply() {
        let plan = FaultPlan::parse(
            "at 10s degrade cert-expiry-skew extra 90s\n\
             at 20s fail ca-compromise-revoke 3\n\
             at 30s fail az-mass-restart 1\n\
             at 40s recover cert-expiry-skew\n\
             at 50s recover ca-compromise-revoke 3\n\
             at 60s recover az-mass-restart 1\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 6);
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        assert!(st.active(FaultTarget::CertExpirySkew));
        assert_eq!(st.extra(FaultTarget::CertExpirySkew), SimDuration::from_secs(90));
        st.apply(&plan.events()[1]);
        assert!(st.crashed(FaultTarget::CaCompromiseRevoke(3)));
        assert!(!st.crashed(FaultTarget::CaCompromiseRevoke(4)));
        st.apply(&plan.events()[2]);
        assert!(st.crashed(FaultTarget::AzMassRestart(1)));
        assert!(!st.crashed(FaultTarget::AzMassRestart(0)));
        assert!(st.any_active());
        for ev in &plan.events()[3..] {
            st.apply(ev);
        }
        assert!(!st.any_active());
        // A hard failure of the issuance clock is active with no magnitude:
        // bundles are cut with an already-expired not_after.
        st.apply(&fail(FaultTarget::CertExpirySkew));
        assert!(st.active(FaultTarget::CertExpirySkew));
        assert_eq!(st.extra(FaultTarget::CertExpirySkew), SimDuration::ZERO);
        // Missing ids are parse errors, not defaults.
        assert!(FaultPlan::parse("at 1s fail ca-compromise-revoke").is_err());
        assert!(FaultPlan::parse("at 1s fail az-mass-restart").is_err());
    }

    #[test]
    fn dsl_rejects_malformed_lines() {
        for (script, fragment) in [
            ("fail az 1", "must start with"),
            ("at xyz fail az 1", "bad time"),
            ("at 1s explode az 1", "unknown action"),
            ("at 1s fail moon 1", "unknown target"),
            ("at 1s fail replica 1", "bad replica spec"),
            ("at 1s fail link-directed 1-0", "bad link-directed spec"),
            ("at 1s fail gray", "gray needs <gateway>"),
            ("at 1s fail az one", "bad az operand"),
            ("at 1s degrade link 0-1", "degrade needs"),
            ("at 1s degrade link 0-1 loss 150%", "bad loss"),
            ("at 1s fail az 1 junk", "trailing tokens"),
            // A time that is not a finite span the clock can hold used to
            // read as t = 0 (NaN) or saturate silently (inf, 1e30).
            ("at NaNs fail az 1", "bad time"),
            ("at infs fail az 1", "bad time"),
            ("at 1e30s fail az 1", "bad time"),
            ("at -1s fail az 1", "bad time"),
            ("at 9223372036.854775808s fail az 1", "bad time"),
            // This one overflowed `at + dur` and panicked.
            ("at infs fail control-crash 1s", "bad time"),
            ("at 18446744073s fail control-crash 1s", "bad time"),
            ("at 1s fail control-crash 18446744073s", "bad duration"),
            ("at 1s fail control-crash infs", "bad duration"),
            ("at 1s degrade key-server extra NaNms", "bad duration"),
            // Degrading what has no such magnitude used to be accepted and
            // do nothing.
            ("at 1s degrade az 1 extra 1s", "`az` has no `extra`"),
            ("at 1s degrade control-zombie loss 5%", "`control-zombie` has no `loss`"),
            ("at 1s degrade key-server loss 5%", "`key-server` has no `loss`"),
        ] {
            let e = FaultPlan::parse(script).unwrap_err();
            assert!(
                e.msg.contains(fragment),
                "script `{script}`: got `{}`, wanted `{fragment}`",
                e.msg
            );
            assert_eq!(e.line, 1);
        }
        // Every class without a magnitude rejects `degrade`, by its row.
        for c in CLASSES.iter().filter(|c| c.degrade == Degrade::Nothing) {
            let line = format!("at 1s degrade {} extra 1s", dsl_line_target(c));
            let e = FaultPlan::parse(&line).unwrap_err();
            assert!(e.msg.contains(c.token), "`{line}`: got `{}`", e.msg);
        }
        // The longest sum the DSL can form stays on the clock.
        let edge = FaultPlan::parse("at 9223372036s fail control-crash 9223372036s").unwrap();
        assert!(edge.events()[1].at < SimTime::MAX);
    }

    #[test]
    fn duration_and_loss_parsers() {
        assert_eq!(parse_duration("1.5s"), Some(SimDuration::from_millis(1500)));
        assert_eq!(parse_duration("250ms"), Some(SimDuration::from_micros(250_000)));
        assert_eq!(parse_duration("10us"), Some(SimDuration::from_micros(10)));
        assert_eq!(parse_duration("7ns"), Some(SimDuration::from_nanos(7)));
        assert_eq!(parse_duration("7"), None);
        assert_eq!(parse_loss("5%"), Some(0.05));
        assert_eq!(parse_loss("0.25"), Some(0.25));
        assert_eq!(parse_loss("1.5"), None);
    }

    /// A class's token and a representative operand (3, or 3 and 4).
    fn dsl_line_target(c: &Class) -> String {
        match c.operand {
            Operand::None => c.token.to_string(),
            Operand::Id(_) => format!("{} 3", c.token),
            Operand::Pair(_, sep, _) => format!("{} 3{sep}4", c.token),
        }
    }

    #[test]
    fn dsl_target_catalogue_is_complete_and_parses() {
        let readme = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../README.md"
        ))
        .unwrap();
        for c in &CLASSES {
            let (token, operand) = (c.token, c.operand.to_string());
            // Every row parses, from nothing but its operand shape, to the
            // member its constructor makes, and `parts` takes that member
            // back apart into the same row and operands...
            let line = format!("at 1s recover {}", dsl_line_target(c));
            let plan = FaultPlan::parse(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(plan.len(), 1, "`{line}`");
            let target = plan.events()[0].target;
            let (x, y) = match c.operand {
                Operand::None => (0, 0),
                Operand::Id(_) => (3, 0),
                Operand::Pair(..) => (3, 4),
            };
            assert_eq!(target, (c.make)(x, y), "`{line}`");
            let (class, px, py) = parts(target);
            assert!(std::ptr::eq(class, c), "`{token}` is filed under `{}`", class.token);
            assert_eq!((px, py), (x, y), "`{line}`");
            // ...and the README's fault-target table carries the row, so the
            // catalogue, the parser and the docs cannot drift apart.
            let cell = if c.operand == Operand::None { operand } else { format!("`{operand}`") };
            let row = format!("| `{token}` | {cell} | ");
            assert!(readme.contains(&row), "README fault-target table is missing `{row}`");
        }
    }

    #[test]
    fn fault_state_tracks_hierarchy() {
        let mut st = FaultState::new(&topo());
        assert!(st.replica_up(0, 0) && st.backend_up(0));
        st.apply(&fail(FaultTarget::Replica { backend: 0, index: 0 }));
        assert!(!st.replica_up(0, 0) && st.backend_up(0));
        assert_eq!(live_replicas(&st, 0), 1);
        st.apply(&fail(FaultTarget::Az(0)));
        assert!(!st.backend_up(0) && !st.backend_up(1), "AZ takes both down");
        assert!(st.backend_up(2), "other AZ unaffected");
        assert!(st.crashed(FaultTarget::Az(0)) && !st.crashed(FaultTarget::Az(1)));
        st.apply(&recover(FaultTarget::Az(0)));
        // Backend recovery clears lingering replica crashes.
        st.apply(&recover(FaultTarget::Backend(0)));
        assert_eq!(live_replicas(&st, 0), 2);
        assert!(!st.any_active());
        // ...but only its own.
        st.apply(&fail(FaultTarget::Replica { backend: 1, index: 0 }));
        st.apply(&recover(FaultTarget::Backend(0)));
        assert_eq!(live_replicas(&st, 1), 1);
    }

    #[test]
    fn fault_state_tracks_degradations() {
        let link = FaultTarget::Link { a: 0, b: 1 };
        let mut st = FaultState::new(&topo());
        st.apply(&degrade(FaultTarget::Link { a: 1, b: 0 }, 0.1, 2));
        // Undirected: both orders answer.
        assert_eq!(st.loss(link), 0.1);
        assert_eq!(st.extra(FaultTarget::Link { a: 1, b: 0 }), SimDuration::from_millis(2));
        st.apply(&fail(link));
        assert_eq!(st.loss(link), 1.0, "crashed link loses all");
        assert_eq!(st.extra(link), SimDuration::from_millis(2), "a crash keeps the magnitudes");
        st.apply(&recover(link));
        assert_eq!(st.loss(link), 0.0);
        st.apply(&degrade(FaultTarget::KeyServer, 0.0, 15));
        assert_eq!(st.extra(FaultTarget::KeyServer), SimDuration::from_millis(15));
        assert!(st.any_active() && !st.crashed(FaultTarget::KeyServer));
        st.apply(&recover(FaultTarget::KeyServer));
        assert!(!st.any_active());
    }

    #[test]
    fn binary_classes_track_fail_and_ignore_degrade() {
        for c in CLASSES.iter().filter(|c| c.degrade == Degrade::Nothing) {
            let target = (c.make)(3, 4);
            let mut st = FaultState::new(&topo());
            // No magnitude to write: up or down, nothing in between.
            st.apply(&degrade(target, 0.5, 1));
            assert!(!st.any_active(), "{}", c.token);
            st.apply(&fail(target));
            assert!(st.crashed(target) && st.active(target) && st.any_active(), "{}", c.token);
            st.apply(&degrade(target, 0.5, 1));
            assert!(st.crashed(target), "{}", c.token);
            assert_eq!(st.extra(target), SimDuration::ZERO, "{}", c.token);
            // One class's failure is no other's (config poison is not
            // policy poison, a zombie is not a crash).
            for other in CLASSES.iter().filter(|o| !std::ptr::eq(*o, c)) {
                assert!(!st.active((other.make)(3, 4)), "{} vs {}", c.token, other.token);
            }
            st.apply(&recover(target));
            assert!(!st.crashed(target) && !st.any_active(), "{}", c.token);
        }
    }

    #[test]
    fn directed_link_is_asymmetric() {
        let plan = FaultPlan::parse(
            "at 10s degrade link-directed 1>0 loss 80% extra 3ms\n\
             at 20s fail link-directed 0>1\n\
             at 30s recover link-directed 1>0\n\
             at 40s recover link-directed 0>1\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 4);
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        // Degraded direction only; reverse is clean.
        assert_eq!(st.directed_link_loss(1, 0), 0.8);
        assert_eq!(st.directed_link_extra(1, 0), SimDuration::from_millis(3));
        assert_eq!(st.directed_link_loss(0, 1), 0.0);
        assert_eq!(st.directed_link_extra(0, 1), SimDuration::ZERO);
        // The undirected query is untouched by directed state.
        assert_eq!(st.loss(FaultTarget::Link { a: 0, b: 1 }), 0.0);
        st.apply(&plan.events()[1]);
        assert_eq!(st.directed_link_loss(0, 1), 1.0, "crashed direction loses all");
        st.apply(&plan.events()[2]);
        st.apply(&plan.events()[3]);
        assert_eq!(st.directed_link_loss(1, 0), 0.0);
        assert!(!st.any_active());
        // An undirected degradation floors both directed queries.
        st.apply(&degrade(FaultTarget::Link { a: 0, b: 1 }, 0.3, 1));
        st.apply(&degrade(FaultTarget::LinkDirected { from: 0, to: 1 }, 0.1, 5));
        assert_eq!(st.directed_link_loss(0, 1), 0.3, "worse of the two wins");
        assert_eq!(st.directed_link_extra(0, 1), SimDuration::from_millis(5));
        assert_eq!(st.directed_link_loss(1, 0), 0.3);
        // `1>0` and `0>1` are different targets, in state as in plans.
        let (mut one, mut two) = (FaultState::new(&topo()), FaultState::new(&topo()));
        one.apply(&fail(FaultTarget::LinkDirected { from: 1, to: 0 }));
        two.apply(&fail(FaultTarget::LinkDirected { from: 0, to: 1 }));
        assert_ne!(digest(&one), digest(&two));
    }

    #[test]
    fn gray_and_partition_parse_and_track() {
        let plan = FaultPlan::parse(
            "at 10s degrade gray 2 loss 60% extra 10ms\n\
             at 20s fail control-partition 3\n\
             at 30s fail gray 4\n\
             at 40s recover gray 2\n\
             at 50s recover control-partition 3\n\
             at 60s recover gray 4\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 6);
        let (gray2, gray4) = (FaultTarget::GrayDegrade(2), FaultTarget::GrayDegrade(4));
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        assert!(st.active(gray2) && !st.active(gray4));
        assert_eq!(st.loss(gray2), 0.6);
        assert_eq!(st.extra(gray2), SimDuration::from_millis(10));
        // Gray failure is invisible to crash-oriented queries: the gateway
        // still answers its probes.
        assert!(st.any_active() && !st.crashed(gray2));
        st.apply(&plan.events()[1]);
        assert!(st.crashed(FaultTarget::ControlPartition(3)));
        assert!(!st.crashed(FaultTarget::ControlPartition(2)));
        assert_eq!(st.partitioned_targets().collect::<Vec<_>>(), vec![3]);
        st.apply(&plan.events()[2]);
        assert_eq!(st.loss(gray4), 1.0, "hard gray fail errors every request");
        assert!(!st.crashed(gray4), "and is still not a crash");
        // A hard gray fail replaces an earlier degradation outright.
        st.apply(&fail(gray2));
        assert_eq!((st.loss(gray2), st.extra(gray2)), (1.0, SimDuration::ZERO));
        for ev in &plan.events()[3..] {
            st.apply(ev);
        }
        assert!(!st.any_active());
    }

    #[test]
    fn control_crash_expands_into_crash_plus_restart() {
        // One script line yields the whole cycle: crash now, recover later.
        let plan = FaultPlan::parse("at 30s fail control-crash 20s").unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: SimTime::ZERO + SimDuration::from_secs(30),
                target: FaultTarget::ControlCrash,
                kind: FaultKind::Crash,
            }
        );
        assert_eq!(
            plan.events()[1],
            FaultEvent {
                at: SimTime::ZERO + SimDuration::from_secs(50),
                target: FaultTarget::ControlCrash,
                kind: FaultKind::Recover,
            }
        );
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        assert!(st.crashed(FaultTarget::ControlCrash));
        st.apply(&plan.events()[1]);
        assert!(!st.any_active());
        // The restart duration is mandatory on `fail`; manual `recover`
        // takes none.
        assert!(FaultPlan::parse("at 30s fail control-crash").is_err());
        assert!(FaultPlan::parse("at 30s fail control-crash nope").is_err());
        assert!(FaultPlan::parse("at 30s fail control-crash 20s junk").is_err());
        assert!(FaultPlan::parse("at 50s recover control-crash").is_ok());
    }

    #[test]
    fn a_fail_of_each_class_moves_the_state_digest_differently() {
        // ROADMAP 2(c), this struct's share: no class is invisible to the
        // digest, and no two classes fold to the same words.
        let mut seen = BTreeSet::from([digest(&FaultState::new(&topo()))]);
        for c in &CLASSES {
            let mut st = FaultState::new(&topo());
            st.apply(&fail((c.make)(1, 0)));
            assert!(seen.insert(digest(&st)), "`fail {}` digests like an earlier state", c.token);
        }
    }

    #[test]
    fn recovering_every_touched_target_restores_the_fresh_state() {
        let fresh = digest(&FaultState::new(&topo()));
        let mut covered = BTreeSet::new();
        for seed in 0..1000 {
            let mut rng = SimRng::seed(seed);
            let events: Vec<FaultEvent> = (0..rng.int_range(1, 25))
                .map(|step| {
                    let row = rng.index(CLASSES.len());
                    let target = (CLASSES[row].make)(rng.index(3) as u32, rng.index(3) as u32);
                    let which = rng.index(3);
                    let kind = match which {
                        0 => FaultKind::Crash,
                        1 => FaultKind::Recover,
                        _ => FaultKind::Degrade {
                            loss: rng.f64(),
                            extra: SimDuration::from_millis(rng.int_range(0, 50)),
                        },
                    };
                    covered.insert((row, which));
                    FaultEvent { at: SimTime::from_secs(step), target, kind }
                })
                .collect();
            // Replaying the sequence through a cursor, tick by tick, is
            // applying every event with `at <= now` by hand: the same
            // ground truth at every tick, every event handed back exactly
            // once in order, and nothing left at the horizon.
            let (mut pending, mut st, mut fired) = (&events[..], FaultState::new(&topo()), Vec::new());
            for tick in 0..=8 {
                let now = SimTime::from_secs(3 * tick);
                fired.extend_from_slice(st.apply_due(&mut pending, now));
                let mut by_hand = FaultState::new(&topo());
                events.iter().filter(|e| e.at <= now).for_each(|e| by_hand.apply(e));
                assert_eq!(digest(&st), digest(&by_hand), "seed {seed} t={now:?}");
            }
            assert!(pending.is_empty() && fired == events, "seed {seed}");
            for e in &events {
                st.apply(&recover(e.target));
            }
            assert_eq!(digest(&st), fresh, "seed {seed}");
            assert!(!st.any_active(), "seed {seed}");
        }
        assert_eq!(covered.len(), 3 * CLASSES.len(), "every class met every kind");
    }

    #[test]
    fn schedule_into_preserves_order() {
        use crate::engine::{Model, Scheduler};
        struct Recorder(Vec<usize>);
        impl Model for Recorder {
            type Event = usize;
            fn handle(&mut self, _now: SimTime, ev: usize, _s: &mut Scheduler<usize>) {
                self.0.push(ev);
            }
        }
        let plan = FaultPlan::parse(
            "at 30s fail az 1\nat 10s fail backend 0\nat 20s recover backend 0\n",
        )
        .unwrap();
        let mut sim = Simulation::new();
        plan.schedule_into(&mut sim, |i, _| i);
        let mut m = Recorder(Vec::new());
        sim.run(&mut m);
        // Plan indices are already time-ordered after parse.
        assert_eq!(m.0, vec![0, 1, 2]);
        assert_eq!(
            plan.events()[0].target,
            FaultTarget::Backend(0),
            "earliest event first after normalization"
        );
    }
}

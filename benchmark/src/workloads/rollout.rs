//! `policy_rollout`: the write side of the tables `l7_small` reads. Each
//! rollout ships a fresh 64-tenant x 34-rule policy (one rule changed)
//! through the rollout controller to a 24-gateway fleet until it
//! converges, then probes the new tables. One op is one gateway commit.

use super::{peak_rss_mib, setup_seconds, timed, Budget};
use crate::gen::{cidr_base, policy_spec, slot_toggled, CIDR_DENIES, HTTP_PORT, RULES_PER_TENANT};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{calibrate_timer_ns, Ledger, NoTrace, SpanTrace, Stage, Tracer};
use canal_control::journal::RolloutKind;
use canal_control::rollout::{HealthSample, RolloutAction, RolloutConfig, RolloutController};
use canal_gateway::config::{ActiveConfig, ConfigSpec, RouteSpec};
use canal_gateway::ActivePolicy;
use canal_mesh::L4Filter;
use canal_net::{GlobalServiceId, ServiceId, TenantId, VpcId};
use canal_policy::{Cidr, PolicySpec};
use canal_policy::{CompiledPolicySet, L4Ctx, L7Ctx, PolicyVerdict};
use canal_sim::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

pub const GATEWAYS: u32 = 24;
pub const TENANTS: u32 = 64;
/// Stage-7 lookups after each convergence.
pub const LOOKUPS: usize = 1000;
/// A journal-backed `recover()` replaces the controller after every this
/// many rollouts.
const RECOVER_EVERY: u64 = 50;
/// Simulated time between controller ticks: past the ack timeout never,
/// past the bake time every second tick.
const TICK: SimDuration = SimDuration::from_secs(16);
const DEBOUNCE: SimDuration = SimDuration::from_millis(100);
/// Rollouts per segment set-up, untimed.
const WARM_ROLLOUTS: usize = 4;
/// Rollouts whose commits make one latency chunk (120 samples).
const LATENCY_CHUNK: u64 = 5;
/// Ticks after which a rollout that has not converged counts as failed.
const MAX_TICKS: usize = 64;

/// One verdict probe: a request context whose verdict depends on whether
/// its CIDR slot has been toggled yet.
#[derive(Debug, Clone)]
struct Probe {
    l4: L4Ctx,
    method: &'static str,
    path: &'static str,
    /// `Some((slot, range))`: the source sits in the slot's toggled (true)
    /// or untoggled (false) /24, so it is denied exactly when the slot's
    /// state equals `range`. `None`: no CIDR covers it.
    cidr: Option<(usize, bool)>,
}

impl Probe {
    /// The verdict the policy after `changes` changes must give.
    fn expected(&self, changes: u64) -> PolicyVerdict {
        let denied = match self.cidr {
            Some((slot, range)) => slot_toggled(slot, changes, TENANTS) == range,
            None => self.method == "DELETE" && self.path.starts_with("/admin"),
        };
        if denied {
            PolicyVerdict::Deny
        } else {
            PolicyVerdict::Allow
        }
    }
}

fn probes() -> Vec<Probe> {
    let ctx = |tenant: u32, src_ip: u32| L4Ctx {
        tenant: TenantId(tenant + 1),
        vpc: VpcId(tenant + 1),
        src_ip,
        dst_port: HTTP_PORT,
        identity: 1,
    };
    let mut out = Vec::new();
    // Two probes per CIDR slot, in slot order: probe 2s and 2s+1.
    for slot in 0..TENANTS as usize * CIDR_DENIES {
        let (tenant, rule) = (slot as u32 % TENANTS, slot / TENANTS as usize);
        for range in [false, true] {
            out.push(Probe {
                l4: ctx(tenant, cidr_base(rule, range) + 7),
                method: "GET",
                path: "/api/items",
                cidr: Some((slot, range)),
            });
        }
    }
    for i in 0..128u32 {
        let (method, path) = if i % 2 == 0 {
            ("DELETE", "/admin/users")
        } else {
            ("GET", "/admin/users")
        };
        out.push(Probe {
            l4: ctx(i % TENANTS, 0x0A00_0100 + i),
            method,
            path,
            cidr: None,
        });
    }
    out
}

/// The fleet and its controller.
pub struct Fleet {
    ctl: RolloutController,
    cfg: RolloutConfig,
    gateways: Vec<ActivePolicy>,
    nodes: Vec<L4Filter>,
    rng: SimRng,
    now: SimTime,
    probes: Vec<Probe>,
    /// The operator's policy document: each rollout edits one rule of it.
    spec: PolicySpec,
    rollouts: u64,
    /// Per-commit wall time in ns, one per gateway commit.
    commit_ns: Vec<f64>,
    pub commits: u64,
    /// Per-gateway pushes the controller asked for.
    pub pushes: u64,
    pub failed: u64,
}

impl Fleet {
    /// A fleet with nothing committed anywhere.
    pub fn new(seed: u64) -> Self {
        let cfg = RolloutConfig::default();
        let mut ctl = RolloutController::new(cfg, DEBOUNCE).with_kind(RolloutKind::Policy);
        for t in 0..GATEWAYS {
            ctl.add_target(t);
        }
        Fleet {
            ctl,
            cfg,
            gateways: (0..GATEWAYS).map(|_| ActivePolicy::new()).collect(),
            nodes: (0..GATEWAYS).map(|_| L4Filter::new()).collect(),
            rng: SimRng::seed(seed),
            now: SimTime::ZERO,
            probes: probes(),
            spec: policy_spec(0, TENANTS, 0),
            rollouts: 0,
            commit_ns: Vec::new(),
            commits: 0,
            pushes: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAIL rollout {}: {what}", self.rollouts);
        }
    }

    fn apply<T: Tracer>(&mut self, t: &mut T, actions: Vec<RolloutAction>, spec: &PolicySpec) {
        for action in actions {
            match action {
                RolloutAction::Push {
                    version,
                    targets,
                    epoch,
                } => {
                    self.pushes += targets.len() as u64;
                    if version != spec.version {
                        self.fail(format!(
                            "push of version {version} while rolling out {}",
                            spec.version
                        ));
                        continue;
                    }
                    for target in targets {
                        let started = Instant::now();
                        let gw = &mut self.gateways[target as usize];
                        let committed = t.span(Stage::PolicyStageCommit, || {
                            gw.stage_fenced(spec.clone(), epoch)
                                .map_err(|e| e.to_string())?;
                            gw.commit_staged(self.now).map_err(|e| e.to_string())
                        });
                        match committed {
                            Ok(v) => {
                                if let Some(set) = gw.compiled() {
                                    let node = &mut self.nodes[target as usize];
                                    t.span(Stage::L4Install, || node.install(set.clone()));
                                }
                                let now = self.now;
                                t.span(Stage::RolloutAck, || self.ctl.ack(target, v, now));
                            }
                            Err(e) => {
                                self.ctl.nack(target, version);
                                self.fail(format!(
                                    "gateway {target} rejected version {version}: {e}"
                                ));
                            }
                        }
                        self.commit_ns.push(started.elapsed().as_nanos() as f64);
                        self.commits += 1;
                    }
                }
                RolloutAction::Rollback { to, .. } => {
                    self.fail(format!("unexpected rollback to version {to}"));
                }
            }
        }
    }

    /// One rollout from `begin` to convergence, then the verdict probes,
    /// then (every 50th) controller recovery from the journal.
    pub fn rollout<T: Tracer>(&mut self, tracer: &mut T) {
        tracer.op(|t| {
            self.rollouts += 1;
            self.now += TICK;
            let version = self.ctl.store().version() + 1;
            let changes = version;
            // The edit: change `changes - 1` toggles one CIDR of one tenant.
            let slots = TENANTS as usize * CIDR_DENIES;
            let toggled = ((changes - 1) % slots as u64) as usize;
            let (tenant, rule) = (toggled % TENANTS as usize, toggled / TENANTS as usize);
            let mut spec = std::mem::take(&mut self.spec);
            spec.version = version;
            spec.tenants[tenant].rules[rule].source_cidr = Some(Cidr::new(
                cidr_base(rule, slot_toggled(toggled, changes, TENANTS)),
                24,
            ));
            // Controller-side validation: a spec that does not compile is
            // never pushed.
            let valid = t.span(Stage::PolicyCompile, || {
                CompiledPolicySet::compile(&spec).is_ok()
            });
            let now = self.now;
            let actions = t.span(Stage::RolloutBegin, || {
                self.ctl
                    .begin(now, valid, HealthSample::HEALTHY, &mut self.rng)
            });
            self.apply(t, actions, &spec);
            let mut ticks = 0;
            while self.ctl.in_flight() && ticks < MAX_TICKS {
                self.now += TICK;
                ticks += 1;
                let now = self.now;
                let actions = t.span(Stage::RolloutTick, || {
                    self.ctl.tick(now, Some(HealthSample::HEALTHY))
                });
                self.apply(t, actions, &spec);
            }
            if self.ctl.in_flight() || self.ctl.last_known_good() != version {
                self.fail(format!("version {version} did not converge"));
            }
            for i in 0..GATEWAYS as usize {
                let running = self.gateways[i].running_version();
                if running != Some(version) || self.nodes[i].version() != version {
                    self.fail(format!(
                        "gateway {i} runs {running:?}, node {}",
                        self.nodes[i].version()
                    ));
                }
            }

            // The two probes of the slot this version toggled, then a
            // window of the pool that moves with every rollout.
            let window = (self.rollouts as usize * (LOOKUPS - 2)) % self.probes.len();
            let picks = [2 * toggled, 2 * toggled + 1]
                .into_iter()
                .chain((0..LOOKUPS - 2).map(|i| (window + i) % self.probes.len()));
            let gw = &self.gateways[self.rollouts as usize % GATEWAYS as usize];
            let probes = &self.probes;
            let wrong = t.span(Stage::PolicyVerdict, || {
                let Some(set) = gw.compiled() else {
                    return LOOKUPS;
                };
                picks
                    .filter(|&i| {
                        let p = &probes[i];
                        set.l7_verdict(&p.l4, &L7Ctx::new(p.method, p.path)) != p.expected(changes)
                    })
                    .count()
            });
            if wrong > 0 {
                self.fail(format!(
                    "{wrong} of {LOOKUPS} lookups did not give version {version}'s verdict"
                ));
            }

            if self.rollouts.is_multiple_of(RECOVER_EVERY) {
                let fleet: BTreeMap<u32, u64> = (0..GATEWAYS)
                    .map(|g| (g, self.gateways[g as usize].running_version().unwrap_or(0)))
                    .collect();
                let now = self.now;
                let (ctl, actions) = t.span(Stage::RolloutRecover, || {
                    RolloutController::recover(self.cfg, DEBOUNCE, self.ctl.journal(), &fleet, now)
                });
                self.ctl = ctl.with_kind(RolloutKind::Policy);
                if !actions.is_empty() {
                    self.fail(format!(
                        "recovery of a converged fleet asked for {} actions",
                        actions.len()
                    ));
                }
            }
            self.spec = spec;
        })
    }
}

/// The untraced run. Each segment's set-up builds a fleet and runs
/// `WARM_ROLLOUTS` rollouts untimed. A throughput chunk is one rollout:
/// commits over wall time, compile, ticks, probes and recovery included. A
/// latency chunk is `LATENCY_CHUNK` rollouts' commits.
pub fn run_untraced(seed: u64, budget: Budget, segments: usize) -> RunResult {
    let mut setups = Vec::with_capacity(segments);
    let mut rates = Vec::new();
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let (mut commits, mut failed) = (0u64, 0u64);
    for segment in 0..segments {
        let (mut fleet, setup_s) = timed(|| {
            let mut fleet = Fleet::new(seed);
            for _ in 0..WARM_ROLLOUTS {
                fleet.rollout(&mut NoTrace);
            }
            fleet.commit_ns.clear();
            fleet
        });
        setups.push(setup_s);
        let budget = budget.segment(segments, segment);
        let warm_commits = fleet.commits;
        let started = Instant::now();
        for n in 0u64.. {
            let more = match budget {
                Budget::Ops(total) => n < total,
                Budget::Seconds(secs) => n == 0 || started.elapsed().as_secs_f64() < secs,
            };
            if !more {
                break;
            }
            let before = fleet.commits;
            let t = Instant::now();
            fleet.rollout(&mut NoTrace);
            rates.push((fleet.commits - before) as f64 / t.elapsed().as_secs_f64());
            if (n + 1).is_multiple_of(LATENCY_CHUNK)
                || matches!(budget, Budget::Ops(total) if n + 1 == total)
            {
                p50s.push(stats::median(&fleet.commit_ns));
                p90s.push(stats::quantile(&fleet.commit_ns, 0.9));
                fleet.commit_ns.clear();
            }
        }
        if !fleet.commit_ns.is_empty() && p50s.is_empty() {
            p50s.push(stats::median(&fleet.commit_ns));
            p90s.push(stats::quantile(&fleet.commit_ns, 0.9));
        }
        commits += fleet.commits - warm_commits;
        failed += fleet.failed;
    }
    let mut r = RunResult {
        attempted: commits,
        failed,
        ..RunResult::default()
    };
    r.set("ops_per_s", stats::quiet_high(&rates));
    r.set("op_ns_p50", stats::quiet_low(&p50s));
    r.set("op_ns_p90", stats::quiet_low(&p90s));
    r.set("peak_rss_mib", peak_rss_mib());
    r.set("setup_s", setup_seconds(&setups));
    r
}

/// The traced run: `rollouts` rollouts with a span around every controller
/// and gateway call, then one `ActiveConfig` stage + commit per rollout as
/// a probe of the config plane's copy of the same fail-static slot.
pub fn run_traced(seed: u64, rollouts: u64, spans_csv: &Path) -> RunResult {
    let timer_ns = calibrate_timer_ns();
    // Two identical fleets take turns, one rollout each, so that whatever
    // the neighbours do falls on both passes alike.
    let mut plain = Fleet::new(seed);
    plain.rollout(&mut NoTrace);
    let mut fleet = Fleet::new(seed);
    fleet.rollout(&mut NoTrace);
    let (commits0, pushes0, appends0) =
        (fleet.commits, fleet.pushes, fleet.ctl.journal().appended());
    let mut trace = SpanTrace::with_capacity(rollouts as usize * (16 + 3 * GATEWAYS as usize) + 64);
    let mut plain_ns = 0.0;
    for _ in 0..rollouts {
        let t = Instant::now();
        plain.rollout(&mut NoTrace);
        plain_ns += t.elapsed().as_nanos() as f64;
        fleet.rollout(&mut trace);
    }
    let commits = fleet.commits - commits0;
    let pushes = fleet.pushes - pushes0;
    let appends = fleet.ctl.journal().appended() - appends0;

    let services: BTreeSet<GlobalServiceId> = (0..TENANTS)
        .map(|t| GlobalServiceId::compose(TenantId(t + 1), ServiceId(0)))
        .collect();
    let mut config = ActiveConfig::new();
    for v in 1..=rollouts {
        let spec = ConfigSpec {
            version: v,
            routes: services
                .iter()
                .map(|&service| RouteSpec {
                    service,
                    backends: vec![0, 1, 2],
                })
                .collect(),
        };
        let committed = trace.op(|t| {
            t.span(Stage::ConfigStageCommit, || {
                config.stage_fenced(spec, 1).is_ok()
                    && config.commit_staged(SimTime::from_secs(v), &services) == Ok(v)
            })
        });
        if !committed {
            fleet.fail(format!("config version {v} did not commit"));
        }
    }
    if let Err(e) = trace.write_csv(spans_csv) {
        eprintln!("warning: could not write {}: {e}", spans_csv.display());
    }
    let ledger = Ledger::fold(&trace, timer_ns);

    let n = rollouts as f64;
    let mut r = RunResult::per_layer_zeroed();
    r.attempted = commits;
    r.failed = plain.failed + fleet.failed;
    let compile = ledger.stage(Stage::PolicyCompile);
    r.set("policy.compile_ns", compile.ns_per_call());
    if compile.self_ns > 0.0 {
        let rules = (TENANTS as usize * RULES_PER_TENANT) as f64;
        r.set(
            "policy.compile_rules_per_s",
            rules * compile.calls as f64 / (compile.self_ns / 1e9),
        );
    }
    r.set(
        "policy.l7_verdict_ns",
        ledger.stage(Stage::PolicyVerdict).ns_per_call() / LOOKUPS as f64,
    );
    r.set(
        "policy.allocs_per_op",
        ledger.layer_allocs("policy") as f64 / commits as f64,
    );
    r.set(
        "gateway.policy_stage_commit_ns",
        ledger.stage(Stage::PolicyStageCommit).ns_per_call(),
    );
    r.set(
        "gateway.config_stage_commit_ns",
        ledger.stage(Stage::ConfigStageCommit).ns_per_call(),
    );
    r.set(
        "gateway.allocs_per_op",
        ledger.layer_allocs("gateway") as f64 / commits as f64,
    );
    r.set(
        "mesh.l4_install_ns",
        ledger.stage(Stage::L4Install).ns_per_call(),
    );
    r.set(
        "mesh.allocs_per_op",
        ledger.layer_allocs("mesh") as f64 / commits as f64,
    );
    r.set(
        "control.begin_ns",
        ledger.stage(Stage::RolloutBegin).ns_per_call(),
    );
    r.set(
        "control.tick_ns",
        ledger.stage(Stage::RolloutTick).ns_per_call(),
    );
    r.set(
        "control.ack_ns",
        ledger.stage(Stage::RolloutAck).ns_per_call(),
    );
    r.set(
        "control.recover_ns",
        ledger.stage(Stage::RolloutRecover).ns_per_call(),
    );
    r.set("control.pushes_per_rollout", pushes as f64 / n);
    r.set("control.journal_appends_per_rollout", appends as f64 / n);
    // Ops here are rollouts; the config probes are roots of their own.
    let rollout_ns = plain_ns;
    let staged_ns = ledger.staged_ns() - ledger.stage(Stage::ConfigStageCommit).self_ns;
    r.set("path.ledger_ratio", staged_ns / rollout_ns);
    r.set(
        "path.allocs_per_op",
        ledger.total_allocs() as f64 / commits as f64,
    );
    r.set(
        "path.alloc_bytes_per_op",
        ledger.total_alloc_bytes() as f64 / commits as f64,
    );
    let raw_ns: f64 = ledger.op_ns[..rollouts as usize].iter().sum();
    r.set("trace.overhead_ratio", raw_ns / plain_ns - 1.0);
    r.set("trace.timer_ns", timer_ns);
    let mut commit_ns = plain.commit_ns.split_off(GATEWAYS as usize);
    commit_ns.sort_by(f64::total_cmp);
    r.set("path.op_ns_p99", stats::quantile_sorted(&commit_ns, 0.99));
    r.set("path.op_ns_p999", stats::quantile_sorted(&commit_ns, 0.999));
    eprintln!(
        "{rollouts} rollouts, {commits} commits: {:.0} ns per rollout, of which compile x pushes = {:.0} ns ({:.1}%), stage+commit x commits = {:.0} ns ({:.1}%)",
        rollout_ns / n,
        compile.ns_per_call() * pushes as f64 / n,
        100.0 * compile.ns_per_call() * pushes as f64 / rollout_ns,
        ledger.stage(Stage::PolicyStageCommit).self_ns / n,
        100.0 * ledger.stage(Stage::PolicyStageCommit).self_ns / rollout_ns,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_policy::reference_l7_verdict;

    #[test]
    fn expected_verdicts_agree_with_the_reference_matcher() {
        let probes = probes();
        for changes in [0, 1, 2, 63, 64, 700, 2048, 2049, 5000] {
            let spec = policy_spec(changes, TENANTS, changes);
            for p in &probes {
                let tp = &spec.tenants[p.l4.tenant.raw() as usize - 1];
                let reference = reference_l7_verdict(tp, &p.l4, &L7Ctx::new(p.method, p.path));
                assert_eq!(
                    p.expected(changes),
                    reference,
                    "{p:?} after {changes} changes"
                );
            }
        }
    }

    #[test]
    fn edited_spec_equals_the_generated_one() {
        let mut fleet = Fleet::new(1);
        for _ in 0..3 {
            fleet.rollout(&mut NoTrace);
        }
        assert_eq!(fleet.failed, 0);
        assert_eq!(fleet.commits, 3 * u64::from(GATEWAYS));
        assert_eq!(fleet.spec, policy_spec(3, TENANTS, 3));
    }
}

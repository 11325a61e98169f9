//! Policy-plane blast-radius experiment: one poisoned and one wrong-scope
//! tenant policy change, three distribution strategies, plus the compiled
//! match-engine's isolation / differential / cost gates.
//!
//! The policy plane (DESIGN.md §14) compiles tenant-scoped L4–L7 rules
//! into flat match tables evaluated at two points: the node's
//! [`L4Filter`] (fast allow/deny on flow context, deferring L7-predicated
//! rules) and the gateway's [`ActivePolicy`] (full request context,
//! fail-static commit discipline). This experiment scripts two bad policy
//! changes against a two-tenant fleet with *overlapping* VPC address
//! spaces and pushes them through three arms under identical arrivals:
//!
//! * **istio-full-push** — the poisoned policy reaches every sidecar in
//!   one blind push; enforcement fails closed fleet-wide until an
//!   operator notices and re-pushes.
//! * **ambient-waypoint** — per-waypoint sequential blind pushes, halted
//!   mid-flight at operator detection; partial exposure.
//! * **canal** — the [`RolloutController`] canaries every change.
//!   The *semantically invalid* cut (`at 20s fail policy-poison` in the
//!   fault DSL) is NACKed by the canary gateways' `ActivePolicy` —
//!   never committed anywhere, serving continues from the running
//!   tables, automatic rollback. The *valid but wrong-scope* deny-all
//!   change later commits at the canary, drives tenant 1's deny rate
//!   over the water line ([`AlertKind::PolicyDeny`]), and the health
//!   gate rolls it back with exposure bounded by the canary wave.
//!
//! Alongside the rollout timeline, three engine gates run on the same
//! seed: **isolation** (compile the two overlapping tenants together and
//! each alone — verdicts must be identical packet-for-packet, zero
//! cross-tenant matches), **differential** (compiled tables vs the naive
//! per-rule reference scan over the whole arrival stream — digest-equal),
//! and **match cost** (the compiled per-lookup op bound must stay well
//! under the reference's O(rules) scan on a large synthetic rule set).
//! Everything is seeded; double runs are bit-identical
//! ([`PolicyBlastOutcome::digest`], held by `crate::scenario::drive`).
//!
//! [`RolloutController`]: canal_control::RolloutController
//! [`ActivePolicy`]: canal_gateway::ActivePolicy
//! [`L4Filter`]: canal_mesh::L4Filter
//! [`AlertKind::PolicyDeny`]: canal_control::AlertKind

use crate::experiments::southbound::{poisson_arrivals, Blast, CanalArm, TickClock};
use crate::harness::{Check, ExperimentReport};
use crate::scenario::{fields, violated, Json, Scenario};
use canal_control::{
    AlertKind, HealthSample, RolloutConfig, RolloutController, RolloutKind, WaterLevelMonitor,
};
use canal_gateway::policy::PolicyPlane;
use canal_mesh::L4Filter;
use canal_net::{TenantId, VpcId};
use canal_policy::{
    reference_l7_verdict, Cidr, CompiledPolicySet, CompiledTenant, L4Ctx, L4Verdict, L7Ctx,
    PolicyRule, PolicySpec, PolicyStore, PolicyVerdict, TenantPolicy, POLICY_RETAIN_CAP,
};
use canal_sim::faults::{FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::Table;
use canal_sim::{Digest, SimDuration, SimRng, SimTime};

/// The two tenants sharing the 10.0.0.0/16 address space (their VPCs
/// overlap on purpose — addresses alone never discriminate, §4.2).
const TENANT_IDS: [u32; 2] = [1, 2];
/// Source /24 both tenants block (rule 1, L4-only).
const BLOCKED_CIDR: Cidr = Cidr { base: 0x0A00_C800, prefix_len: 24 };
/// Steady tail latency fed to the health gate (the gate trips on the
/// unexpected-deny rate here, never on latency).
const STEADY_P99: SimDuration = SimDuration::from_millis(5);
/// Request payload size charged per offered request.
const REQUEST_BYTES: u64 = 2 << 10;
/// Offered requests a gateway must accumulate before its deny fraction is
/// fed to the water-level monitor — watermark decisions need evidence,
/// not two-request windows.
const MONITOR_QUANTUM: u64 = 16;
/// Rule count of the synthetic tenant the match-cost gate compiles.
const COST_RULES: usize = 512;
/// Packets the isolation gate probes per seed.
const ISOLATION_PROBES: usize = 1500;

const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
const PATHS: [&str; 5] = ["/", "/api/items", "/api/orders", "/admin/keys", "/healthz"];

/// Policy-rollout run parameters.
#[derive(Debug, Clone, Copy)]
pub struct PolicyParams {
    /// Time compression: scripted fault times, detection delays, bake and
    /// ack windows are all multiplied by this.
    pub time_scale: f64,
    /// Offered load (requests/s, both tenants together).
    pub rps: f64,
    /// Data-plane fleet size (gateways and their nodes).
    pub fleet: usize,
}

impl PolicyParams {
    /// The full run: a 90 s timeline, 24 gateways, 200 rps.
    pub fn full() -> Self {
        PolicyParams { time_scale: 1.0, rps: 200.0, fleet: 24 }
    }

    /// CI smoke mode: the same scenario compressed 4× on a smaller fleet.
    /// The offered rate goes *up*, not down: compressed time shrinks every
    /// monitoring window, so the per-gateway evidence quanta need a higher
    /// arrival rate to fill inside the (also compressed) bake window.
    pub fn fast() -> Self {
        PolicyParams { time_scale: 0.25, rps: 280.0, fleet: 12 }
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
            // Long enough for a canary gateway to fill a full evidence
            // quantum (and the monitor to alert) before wave 2 can ship.
            bake_time: SimDuration::from_secs(8).scale(self.time_scale),
            ack_timeout: SimDuration::from_secs(4).scale(self.time_scale),
            max_error_delta: 0.01,
            max_p99_inflation: 1.5,
            ..RolloutConfig::default()
        }
    }
}

/// The scripted scenario: a window during which the policy *source* is
/// poisoned, so any change cut inside it is semantically invalid.
fn scripted_plan(clock: &TickClock) -> FaultPlan {
    clock.script(&[
        (20.0, "fail policy-poison"),    // operator ships the malformed policy
        (30.0, "recover policy-poison"), // source fixed upstream
    ])
}

/// One precomputed arrival: a request with full L4+L7 context.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    gw: usize,
    tenant: u32,
    src_ip: u32,
    dst_port: u16,
    identity: u64,
    method: usize,
    path: usize,
}

impl Arrival {
    fn l4(&self) -> L4Ctx {
        L4Ctx {
            tenant: TenantId(self.tenant),
            vpc: VpcId(self.tenant),
            src_ip: self.src_ip,
            dst_port: self.dst_port,
            identity: self.identity,
        }
    }

    fn l7(&self) -> L7Ctx<'static> {
        L7Ctx::new(METHODS[self.method], PATHS[self.path])
    }
}

/// One deterministic Poisson stream over both tenants, spread uniformly
/// over the fleet. Both tenants draw sources from the *same* 10.0.0.0/16.
fn arrivals(seed: u64, params: &PolicyParams) -> Vec<Arrival> {
    poisson_arrivals(seed ^ 0x0011_C7A5_7AB1_E500, params.rps, params.clock().horizon(), |rng, at| {
        // A thin slice of sources falls in the blocked /24, the rest
        // spreads over the shared /16. Legitimate denies are kept rare
        // (~1.6% total) so the deny-spike watermark separates cleanly
        // from zero-trust background noise.
        let src_ip = if rng.chance(0.005) {
            BLOCKED_CIDR.base | (rng.u64() as u32 & 0xFF)
        } else {
            0x0A00_0000 | (rng.u64() as u32 & 0xFFFF)
        };
        // Port mix: mostly HTTP(S), a metrics slice the L4 path can allow
        // outright, a telnet sliver it fast-denies.
        let r = rng.f64();
        let dst_port = if r < 0.45 {
            443
        } else if r < 0.87 {
            80
        } else if r < 0.995 {
            9100
        } else {
            23
        };
        let m = rng.f64();
        let method = if m < 0.72 {
            0
        } else if m < 0.89 {
            1
        } else if m < 0.97 {
            2
        } else {
            3
        };
        Arrival {
            at,
            gw: rng.index(params.fleet),
            tenant: TENANT_IDS[rng.index(2)],
            src_ip,
            dst_port,
            identity: 100 + rng.index(8) as u64,
            method,
            path: rng.index(PATHS.len()),
        }
    })
}

/// The baseline (good) rule set both tenants run: an L4 CIDR deny, an L4
/// telnet deny, an L4-only metrics allow (so the node path has a pure
/// fast-allow slice), an L7 admin guard, then allow-any, default deny.
fn baseline_rules() -> Vec<PolicyRule> {
    vec![
        PolicyRule::deny().with_source_cidr(BLOCKED_CIDR),
        PolicyRule::deny().with_ports(23, 23),
        PolicyRule::allow().with_ports(9100, 9100),
        PolicyRule::deny().with_method("DELETE").with_path_prefix("/admin"),
        PolicyRule::allow(),
    ]
}

/// The policy content for `version`. A cut taken while the source is
/// poisoned carries an inverted port range (semantically invalid — data
/// planes must NACK). The wrong-scope cut is *valid* but replaces tenant
/// 1's rules with deny-everything.
fn spec_for(version: u64, poisoned: bool, deny_all: bool) -> PolicySpec {
    let tenants = TENANT_IDS
        .iter()
        .map(|&t| {
            let rules = if poisoned && t == 1 {
                vec![PolicyRule::deny().with_ports(443, 80)]
            } else if deny_all && t == 1 {
                vec![PolicyRule::deny()]
            } else {
                baseline_rules()
            };
            TenantPolicy {
                tenant: TenantId(t),
                vpc: VpcId(t),
                rules,
                default_action: PolicyVerdict::Deny,
            }
        })
        .collect();
    PolicySpec { version, tenants }
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct PolicyBlastOutcome {
    /// The poisoned policy across the three arms, and canal's healthy
    /// policy rollout before it.
    pub blast: Blast,
    /// Gateways that committed the wrong-scope deny-all version before
    /// the health gate rolled it back (must be ≤ canary).
    pub deny_exposed: usize,
    /// Tenant-1 requests wrongly denied by the deny-all canary.
    pub deny_errors: u64,
    /// `PolicyDeny` alerts the water-level monitor raised.
    pub policy_alerts: u64,
    /// Node-path admission counters summed over the fleet.
    pub node_allowed: u64,
    /// Node-path fast denies (no L7 involvement).
    pub node_denied: u64,
    /// Node-path deferrals to the gateway L7 tables.
    pub node_deferred: u64,
    /// Versions the policy store retains after the run.
    pub store_len: usize,
    /// Isolation gate: packets probed against joint vs solo compiles.
    pub isolation_probes: u64,
    /// Isolation gate: verdict divergences (must be zero).
    pub cross_tenant_matches: u64,
    /// Differential gate: compiled verdict-stream digest.
    pub compiled_digest: u64,
    /// Differential gate: reference verdict-stream digest.
    pub reference_digest: u64,
    /// Match-cost gate: compiled per-lookup op bound on the large set.
    pub compiled_ops: u64,
    /// Match-cost gate: the reference's per-lookup rule evaluations.
    pub naive_ops: u64,
    /// Rules in the match-cost synthetic tenant.
    pub cost_rules: usize,
    /// Policy evaluations performed (node + gateway), for throughput.
    pub events: u64,
    /// Bytes offered over the horizon.
    pub total_bytes: u64,
    /// Controller + gateway + node + monitor state digest.
    pub canal_state_digest: u64,
}

impl PolicyBlastOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let b = &self.blast;
        let mut d = Digest::new();
        for a in &b.arms {
            a.fold_digest(&mut d);
        }
        d.write_u64(b.fleet as u64)
            .write_u64(b.canary_size as u64)
            .write_u64(b.nacks)
            .write_u64(b.rollbacks)
            .write_u64(self.deny_exposed as u64)
            .write_u64(self.deny_errors)
            .write_u64(u64::from(b.healthy_converged))
            .write_u64(b.healthy_waves as u64)
            .write_u64(b.healthy_exposed as u64)
            .write_u64(self.policy_alerts)
            .write_u64(self.node_allowed)
            .write_u64(self.node_denied)
            .write_u64(self.node_deferred)
            .write_u64(self.store_len as u64)
            .write_u64(self.isolation_probes)
            .write_u64(self.cross_tenant_matches)
            .write_u64(self.compiled_digest)
            .write_u64(self.reference_digest)
            .write_u64(self.compiled_ops)
            .write_u64(self.naive_ops)
            .write_u64(self.cost_rules as u64)
            .write_u64(self.events)
            .write_u64(self.total_bytes)
            .write_u64(self.canal_state_digest);
        d.value()
    }

    /// The invariant `experiments policy` gates on: the poisoned policy is
    /// NACKed and never committed under canal (blast radius 0), the
    /// wrong-scope deny-all is contained to the canary wave and rolled
    /// back by the deny-spike health gate, the compiled tables are
    /// bit-identical to the naive reference, the overlapping tenants
    /// never cross-match, and the compiled match cost beats the scan.
    pub fn policy_ok(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Requests the intended baseline policy would allow, as `(arrival,
/// gateway)`: the ones a blindly applied broken policy (fail-closed) turns
/// into errors.
fn baseline_allowed(stream: &[Arrival]) -> Vec<(SimTime, usize)> {
    let Ok(set) = CompiledPolicySet::compile(&spec_for(1, false, false)) else {
        return Vec::new();
    };
    stream
        .iter()
        .filter(|a| set.l7_verdict(&a.l4(), &a.l7()) == PolicyVerdict::Allow)
        .map(|a| (a.at, a.gw))
        .collect()
}

/// Isolation gate: compile the overlapping two-tenant spec jointly and
/// each tenant alone; every probe packet must get the same verdict and
/// the same matched-rule index from both — a divergence means one
/// tenant's packet touched the other tenant's rules.
fn isolation_gate(seed: u64, probes: usize) -> (u64, u64) {
    let spec = spec_for(1, false, false);
    let Ok(joint) = CompiledPolicySet::compile(&spec) else {
        return (0, u64::MAX);
    };
    let solos: Vec<(u32, CompiledPolicySet)> = TENANT_IDS
        .iter()
        .filter_map(|&t| {
            let solo = PolicySpec {
                version: 1,
                tenants: spec.tenants.iter().filter(|tp| tp.tenant.raw() == t).cloned().collect(),
            };
            CompiledPolicySet::compile(&solo).ok().map(|c| (t, c))
        })
        .collect();
    let mut rng = SimRng::seed(seed ^ 0x0011_C7A5_1501_A7E0);
    let mut cross = 0u64;
    let mut probed = 0u64;
    for _ in 0..probes {
        let a = Arrival {
            at: SimTime::ZERO,
            gw: 0,
            tenant: TENANT_IDS[rng.index(2)],
            src_ip: 0x0A00_0000 | (rng.u64() as u32 & 0xFFFF),
            dst_port: [80, 443, 9100, 23][rng.index(4)],
            identity: 100 + rng.index(8) as u64,
            method: rng.index(METHODS.len()),
            path: rng.index(PATHS.len()),
        };
        let Some((_, solo)) = solos.iter().find(|(t, _)| *t == a.tenant) else {
            continue;
        };
        probed += 1;
        let (l4, l7) = (a.l4(), a.l7());
        if joint.l7_verdict(&l4, &l7) != solo.l7_verdict(&l4, &l7)
            || joint.l7_match(&l4, &l7) != solo.l7_match(&l4, &l7)
            || joint.l4_verdict(&l4) != solo.l4_verdict(&l4)
        {
            cross += 1;
        }
    }
    (probed, cross)
}

/// Differential gate: compiled tables vs the naive reference scan over
/// the whole arrival stream, folded into two verdict-stream digests.
fn differential_gate(stream: &[Arrival]) -> (u64, u64) {
    let spec = spec_for(1, false, false);
    let Ok(compiled) = CompiledPolicySet::compile(&spec) else {
        return (0, u64::MAX);
    };
    let mut dc = Digest::new();
    let mut dr = Digest::new();
    let tag = |v: PolicyVerdict| match v {
        PolicyVerdict::Allow => 1u64,
        PolicyVerdict::Deny => 2u64,
    };
    for a in stream {
        let (l4, l7) = (a.l4(), a.l7());
        dc.write_u64(tag(compiled.l7_verdict(&l4, &l7)));
        let rv = spec
            .tenants
            .iter()
            .find(|tp| tp.tenant == l4.tenant)
            .map(|tp| reference_l7_verdict(tp, &l4, &l7))
            .unwrap_or(PolicyVerdict::Deny);
        dr.write_u64(tag(rv));
    }
    (dc.value(), dr.value())
}

/// Match-cost gate: compile a large synthetic tenant and compare the
/// compiled engine's deterministic per-lookup op bound against the
/// reference's O(rules) scan.
fn cost_gate(seed: u64) -> (u64, u64, usize) {
    let mut rng = SimRng::seed(seed ^ 0x0011_C7A5_C057_0000);
    let mut rules = Vec::with_capacity(COST_RULES);
    for i in 0..COST_RULES {
        let mut r = if rng.chance(0.5) { PolicyRule::allow() } else { PolicyRule::deny() };
        let prefix = 18 + rng.index(13) as u8;
        let base = (0x0A00_0000 | (rng.u64() as u32 & 0xFFFF)) & Cidr { base: 0, prefix_len: prefix }.mask();
        r = r.with_source_cidr(Cidr { base, prefix_len: prefix });
        if rng.chance(0.5) {
            let lo = 1024 + rng.index(8000) as u16;
            r = r.with_ports(lo, lo + rng.index(200) as u16);
        }
        if rng.chance(0.4) {
            r = r.with_method(METHODS[rng.index(METHODS.len())]);
        }
        if rng.chance(0.4) {
            r = r.with_path_prefix(PATHS[rng.index(PATHS.len())]);
        }
        if i % 7 == 0 {
            r = r.with_identities(&[100 + rng.index(8) as u64]);
        }
        rules.push(r);
    }
    let tp = TenantPolicy {
        tenant: TenantId(1),
        vpc: VpcId(1),
        rules,
        default_action: PolicyVerdict::Deny,
    };
    match CompiledTenant::compile(&tp) {
        Ok(c) => (c.lookup_ops(), tp.rules.len() as u64, c.rule_count()),
        Err(_) => (u64::MAX, tp.rules.len() as u64, 0),
    }
}

/// Run the whole policy blast-radius scenario. Fully deterministic in
/// `seed`. The canal arm is driven tick by tick: controller, fail-static
/// gateway policy, per-node L4 filters, the scripted poison window, and
/// three scheduled policy changes (healthy, poisoned, wrong-scope
/// deny-all); the blind-push arms are priced against the same arrivals.
///
/// Serving model: a gateway with no committed policy forwards permissive
/// (the migration bootstrap — enforcement turns on at the first commit);
/// after that the node's [`L4Filter`] screens every arrival and defers
/// L7-predicated candidates to the gateway tables.
pub fn run_policy(seed: u64, params: &PolicyParams) -> PolicyBlastOutcome {
    let clock = params.clock();
    let plan = scripted_plan(&clock);
    let stream = arrivals(seed, params);
    let t_bad = plan.first(FaultTarget::PolicyPoison, FaultKind::Crash).unwrap_or(SimTime::MAX);
    let baseline = HealthSample { error_rate: 0.0, p99: STEADY_P99 };
    let baseline_set = CompiledPolicySet::compile(&spec_for(1, false, false)).ok();

    // The three scheduled changes (seconds, then scaled): the healthy
    // baseline rollout, the poisoned cut (content keyed off the scripted
    // fault state), and the valid-but-wrong-scope deny-all.
    let schedule = vec![(clock.at(0.0), false), (t_bad, false), (clock.at(45.0), true)];
    let ctl = RolloutController::new(params.rollout_cfg(), SimDuration::ZERO)
        .with_kind(RolloutKind::Policy);
    let mut canal: CanalArm<PolicyPlane> = CanalArm::new(ctl, params.fleet, schedule);
    let mut nodes: Vec<L4Filter> = (0..params.fleet).map(|_| L4Filter::new()).collect();
    let mut store = PolicyStore::new();

    let mut state = FaultState::new(&FaultTopology { backends: Vec::new() });
    let mut pending_faults = plan.events();
    let mut monitor = WaterLevelMonitor::new();
    let mut rng = SimRng::seed(seed ^ 0x0011_C7A5_C7F1_0001);

    let mut ar_idx = 0usize;
    let mut alerts_seen = 0usize;
    let mut gw_window: Vec<(u64, u64)> = vec![(0, 0); params.fleet];
    let mut errors_poison = 0u64;
    let mut deny_errors = 0u64;
    let mut events = 0u64;

    for now in clock.ticks() {
        // 1. Scripted ground truth advances.
        state.apply_due(&mut pending_faults, now);

        // 2. Arrivals since the last tick, screened at the node and (on
        //    deferral) decided by the gateway's *running* tables.
        while ar_idx < stream.len() && stream[ar_idx].at <= now {
            let a = stream[ar_idx];
            ar_idx += 1;
            gw_window[a.gw].0 += 1;
            let gw = &canal.slots[a.gw];
            let verdict = if gw.running_version().is_some() {
                events += 1;
                match nodes[a.gw].admit(&a.l4()) {
                    L4Verdict::Allow => PolicyVerdict::Allow,
                    L4Verdict::Deny => PolicyVerdict::Deny,
                    L4Verdict::NeedsL7 => {
                        events += 1;
                        gw.compiled()
                            .map(|c| c.l7_verdict(&a.l4(), &a.l7()))
                            .unwrap_or(PolicyVerdict::Deny)
                    }
                }
            } else {
                PolicyVerdict::Allow
            };
            if verdict == PolicyVerdict::Deny {
                gw_window[a.gw].1 += 1;
                // An unexpected deny is an error: the running tables deny
                // what the intended baseline policy allows.
                let intended = baseline_set
                    .as_ref()
                    .map(|s| s.l7_verdict(&a.l4(), &a.l7()))
                    .unwrap_or(PolicyVerdict::Deny);
                if intended == PolicyVerdict::Allow {
                    let rv = gw.running_version().unwrap_or(0);
                    if canal.poisoned.contains(&rv) {
                        errors_poison += 1;
                    } else if canal.harmful == Some(rv) {
                        deny_errors += 1;
                    }
                }
            }
        }

        // 3. Policy health *is* the monitor's deny watermark: the health
        //    sample the controller bakes against reports an error only
        //    when a new PolicyDeny alert fired since the last tick. The
        //    deny spike is therefore always detected (and alerted) before
        //    the health gate can roll the change back.
        let policy_alerts_now = policy_alerts(&monitor);
        let health = Some(HealthSample {
            error_rate: if policy_alerts_now > alerts_seen { 1.0 } else { 0.0 },
            p99: STEADY_P99,
        });
        alerts_seen = policy_alerts_now;

        // 4. Scheduled changes + the controller's own state machine.
        let mut actions = Vec::new();
        let begun = canal.begin_due(now, state.active(FaultTarget::PolicyPoison), baseline, &mut rng);
        if let Some((version, first_actions)) = begun {
            actions = first_actions;
            let (poisoned, deny_all) = (canal.poisoned.contains(&version), canal.harmful == Some(version));
            store.record(spec_for(version, poisoned, deny_all));
        }
        actions.extend(canal.ctl.tick(now, health));

        // 5. Apply actions to the data plane. Every delivery is a clone of
        //    the archived document (a wave's gateways share its tenants) and
        //    runs through the gateway's fail-static commit (validate +
        //    compile or NACK); the node filter mirrors whatever the gateway
        //    committed. Version 0, where a rollback lands when nothing ever
        //    converged, has no document and restores nothing.
        for d in actions.iter().flat_map(|action| action.deliveries()) {
            let Some(spec) = store.get(d.version) else {
                continue;
            };
            if canal.apply(d, spec.clone(), now, ()) {
                if let Some(c) = canal.slots[d.target as usize].compiled() {
                    nodes[d.target as usize].install(c.clone());
                }
            }
        }

        // 6. The water-level monitor watches *per-gateway* deny fractions
        //    — per-gateway watermarks catch a wrong-scope canary while the
        //    fleet average still looks healthy. A gateway's window is only
        //    ingested once it holds a full evidence quantum, so the spike
        //    line is never crossed on two-request noise.
        for w in gw_window.iter_mut() {
            if w.0 >= MONITOR_QUANTUM {
                monitor.ingest_policy(now, w.0, w.1);
                *w = (0, 0);
            }
        }
    }

    let (mut node_allowed, mut node_denied, mut node_deferred) = (0u64, 0u64, 0u64);
    for n in &nodes {
        let (a, d, f) = n.counters();
        node_allowed += a;
        node_denied += d;
        node_deferred += f;
    }

    let mut d = Digest::new();
    canal.ctl.fold_digest(&mut d);
    for gw in &canal.slots {
        gw.fold_digest(&mut d);
    }
    for n in &nodes {
        n.fold_digest(&mut d);
    }
    store.fold_digest(&mut d);
    monitor.fold_digest(&mut d);
    d.write_u64(canal.nacks);

    // A blindly applied broken policy fails closed: every request the
    // intended baseline would allow errors on a proxy that runs it.
    let at_risk = baseline_allowed(&stream);
    let canary_size = params.rollout_cfg().canary_size;
    let offered = stream.len() as u64;
    let at_risk = at_risk.iter().copied();
    let (isolation_probes, cross_tenant_matches) = isolation_gate(seed, ISOLATION_PROBES);
    let (compiled_digest, reference_digest) = differential_gate(&stream);
    let (compiled_ops, naive_ops, cost_rules) = cost_gate(seed);
    PolicyBlastOutcome {
        blast: canal.blast(canary_size, offered, errors_poison, params.time_scale, t_bad, at_risk),
        deny_exposed: canal.harmful_exposed(),
        deny_errors,
        policy_alerts: policy_alerts(&monitor) as u64,
        node_allowed,
        node_denied,
        node_deferred,
        store_len: store.len(),
        isolation_probes,
        cross_tenant_matches,
        compiled_digest,
        reference_digest,
        compiled_ops,
        naive_ops,
        cost_rules,
        events,
        total_bytes: offered * REQUEST_BYTES,
        canal_state_digest: d.value(),
    }
}

/// `PolicyDeny` alerts the monitor has raised so far.
fn policy_alerts(monitor: &WaterLevelMonitor) -> usize {
    monitor.alerts().iter().filter(|(_, k)| *k == AlertKind::PolicyDeny).count()
}

/// The tenant policy plane: bad-push blast radius and the compiled-match gates.
impl Scenario for PolicyBlastOutcome {
    const ID: &'static str = "policy";
    const INVARIANT: &'static str =
        "tenant policy: a poisoned cut is never committed, a wrong-scope deny-all is contained to the canary, compiled tables equal the reference, no cross-tenant match";
    const OK_KEY: &'static str = "policy_ok";
    type Params = PolicyParams;

    fn params(fast: bool) -> PolicyParams {
        if fast { PolicyParams::fast() } else { PolicyParams::full() }
    }

    fn run(seed: u64, params: &PolicyParams) -> Self {
        run_policy(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        let mut clauses = self.blast.clauses();
        clauses.extend([
            (
                "the wrong-scope deny-all is contained to the canary wave",
                (1..=self.blast.canary_size).contains(&self.deny_exposed),
            ),
            ("the deny-all canary wrongly denies requests", self.deny_errors > 0),
            ("the deny spike raises a PolicyDeny alert", self.policy_alerts >= 1),
            ("the isolation gate probes", self.isolation_probes > 0),
            ("overlapping tenants never cross-match", self.cross_tenant_matches == 0),
            ("compiled tables equal the naive reference", self.compiled_digest == self.reference_digest),
            ("a compiled lookup costs less than the scan", self.compiled_ops < self.naive_ops),
        ]);
        violated("policy", &clauses)
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let b = &self.blast;
        vec![
            ("canal", fields!(self => nacks: b.nacks, rollbacks: b.rollbacks, deny_exposed,
                canary_size: b.canary_size, deny_errors, policy_alerts,
                healthy_converged: b.healthy_converged, node_allowed, node_denied, node_deferred,
                store_len)),
            ("engine", fields!(self => isolation_probes, cross_tenant_matches,
                differential_equal: self.compiled_digest == self.reference_digest,
                compiled_ops, naive_ops, cost_rules)),
        ]
    }

    fn report(&self, _seed: u64, _params: &PolicyParams) -> ExperimentReport {
        report(self)
    }
}

fn report(outcome: &PolicyBlastOutcome) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "policy",
        "tenant policy plane: blast radius of bad policy pushes + compiled match-engine gates",
    );

    let blast = &outcome.blast;
    report.tables.push(blast.table("blast radius of the poisoned policy", &[]));

    let mut plane = Table::new(
        "canal policy plane",
        &["metric", "value"],
    );
    for (k, v) in [
        ("NACKs (poisoned cut)", blast.nacks.to_string()),
        ("automatic rollbacks", blast.rollbacks.to_string()),
        (
            "deny-all exposure / canary",
            format!("{} / {}", outcome.deny_exposed, blast.canary_size),
        ),
        ("wrongly denied requests", outcome.deny_errors.to_string()),
        ("PolicyDeny alerts", outcome.policy_alerts.to_string()),
        ("healthy rollout waves", blast.healthy_waves.to_string()),
        ("node L4 allowed", outcome.node_allowed.to_string()),
        ("node L4 fast-denied", outcome.node_denied.to_string()),
        ("node deferred to L7", outcome.node_deferred.to_string()),
        ("policy versions retained", outcome.store_len.to_string()),
    ] {
        plane.row(&[k.to_string(), v]);
    }
    report.tables.push(plane);

    let mut engine = Table::new(
        "compiled match engine gates",
        &["gate", "measured"],
    );
    for (k, v) in [
        (
            "isolation probes / cross-tenant matches",
            format!("{} / {}", outcome.isolation_probes, outcome.cross_tenant_matches),
        ),
        (
            "differential digests (compiled vs reference)",
            format!(
                "{:#018x} vs {:#018x}",
                outcome.compiled_digest, outcome.reference_digest
            ),
        ),
        (
            "per-lookup ops, compiled vs naive scan",
            format!(
                "{} vs {} ({} rules)",
                outcome.compiled_ops, outcome.naive_ops, outcome.cost_rules
            ),
        ),
    ] {
        engine.row(&[k.to_string(), v]);
    }
    report.tables.push(engine);

    if let Some(canal) = blast.arm("canal") {
        report.checks.push(Check::cond(
            "canal never commits the poisoned policy",
            "semantic validation NACKs at the canary; blast radius 0",
            &format!("{} of {} gateways, {} NACKs", canal.exposed, canal.fleet, blast.nacks),
            canal.exposed == 0 && blast.nacks > 0,
        ));
        report.checks.push(Check::cond(
            "fail-static keeps the running tables enforcing",
            "a rejected policy push never degrades serving",
            &format!("{} poison-attributed errors", canal.errors),
            canal.errors == 0,
        ));
        report.checks.push(Check::cond(
            "rollback is automatic",
            "NACK and deny-spike health-gate rollbacks, no operator",
            &format!("{} rollbacks", blast.rollbacks),
            blast.rollbacks >= 2,
        ));
        report.checks.push(Check::cond(
            "wrong-scope deny-all contained to the canary wave",
            "the monitor's deny-spike alert trips the health gate during bake",
            &format!(
                "{} of {} gateways (canary {}), {} wrong denies",
                outcome.deny_exposed, blast.fleet, blast.canary_size, outcome.deny_errors
            ),
            outcome.deny_exposed >= 1
                && outcome.deny_exposed <= blast.canary_size
                && outcome.deny_errors > 0,
        ));
        report.checks.push(Check::cond(
            "deny spike surfaces as a monitor dimension",
            "PolicyDeny alerts on the spike edge at the worst gateway",
            &format!("{} alerts", outcome.policy_alerts),
            outcome.policy_alerts >= 1,
        ));
        report.checks.push(blast.healthy_check("healthy policy rollout converges in waves"));
        report.checks.push(Check::cond(
            "tenant isolation over overlapping address spaces",
            "joint vs solo compiles agree on every probe; zero cross-tenant matches",
            &format!(
                "{} probes, {} divergences",
                outcome.isolation_probes, outcome.cross_tenant_matches
            ),
            outcome.isolation_probes > 0 && outcome.cross_tenant_matches == 0,
        ));
        report.checks.push(Check::cond(
            "compiled tables match the naive reference bit-for-bit",
            "verdict-stream digests over the full arrival stream are equal",
            if outcome.compiled_digest == outcome.reference_digest { "equal" } else { "DIVERGED" },
            outcome.compiled_digest == outcome.reference_digest,
        ));
        report.checks.push(Check::band(
            "compiled per-lookup cost vs naive scan",
            "flat tables beat the O(rules) scan with headroom",
            outcome.compiled_ops as f64 / outcome.naive_ops.max(1) as f64,
            0.0,
            0.5,
        ));
        report.checks.push(Check::cond(
            "node L4 path splits fast-path from deferral",
            "pure-L4 slices decide on the node; L7-predicated candidates defer",
            &format!(
                "{} allowed / {} denied / {} deferred",
                outcome.node_allowed, outcome.node_denied, outcome.node_deferred
            ),
            outcome.node_allowed > 0 && outcome.node_denied > 0 && outcome.node_deferred > 0,
        ));
        report.checks.extend(blast.blind_push_checks());
        report.checks.push(Check::cond(
            "policy store retention stays bounded",
            "version history capped at POLICY_RETAIN_CAP",
            &format!("{} of {}", outcome.store_len, POLICY_RETAIN_CAP),
            outcome.store_len <= POLICY_RETAIN_CAP && outcome.store_len > 0,
        ));
    }
    report
}

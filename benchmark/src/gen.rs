//! Seeded input generation: policy specs, route tables, flows, request
//! bytes and the op stream with each op's expected outcome. Everything here
//! runs in set-up; the timed loops only hand these inputs to the program.

use crate::path::{Flow, World};
use canal_gateway::gateway::{BackendId, GatewayConfig};
use canal_http::{Request, RoutePredicate, RouteRule, RouteTable, WeightedTarget};
use canal_mesh::{AuthzPolicy, AuthzRule, L7Engine};
use canal_net::{
    Endpoint, FiveTuple, GlobalServiceId, Packet, PodId, ServiceId, TenantId, VpcAddr, VpcId,
};
use canal_policy::{Cidr, L4Ctx, PolicyRule, PolicySpec, PolicyVerdict, TenantPolicy};
use canal_sim::SimRng;

/// Destination port of HTTP flows: the policy's L7 rule covers it, so the
/// node defers these flows to the gateway (`NeedsL7`).
pub const HTTP_PORT: u16 = 8443;
/// Destination port of pass-through flows: only the port-allow rule covers
/// it, so the node admits them on L4 context alone.
pub const L4_PORT: u16 = 9000;
/// Source-CIDR deny rules per tenant.
pub const CIDR_DENIES: usize = 32;
/// Rules per tenant: the CIDR denies, one L7 deny, one port allow.
pub const RULES_PER_TENANT: usize = CIDR_DENIES + 2;
/// The identity no service allows: its requests must get 403.
pub const DENIED_IDENTITY: u64 = 31_337;
/// Identities each service allows.
const IDENTITIES_PER_SERVICE: u64 = 8;
/// Names of the two weighted targets of every route rule (90/10).
pub const TARGETS: [&str; 2] = ["v1", "v2"];

/// Whether CIDR slot `slot` (tenant-major: `slot % tenants` is the tenant,
/// `slot / tenants` the rule) has been toggled an odd number of times after
/// `changes` single-rule changes. Change `k` (from 0) toggles slot
/// `k % (tenants * CIDR_DENIES)`.
pub fn slot_toggled(slot: usize, changes: u64, tenants: u32) -> bool {
    let total = u64::from(tenants) * CIDR_DENIES as u64;
    let toggles = changes / total + u64::from((slot as u64) < changes % total);
    toggles % 2 == 1
}

/// Base address of the /24 that CIDR rule `rule` denies: 192.168.rule.0, or
/// 172.16.rule.0 once toggled. No generated flow has a source in either.
pub fn cidr_base(rule: usize, toggled: bool) -> u32 {
    (if toggled { 0xAC10_0000 } else { 0xC0A8_0000 }) | ((rule as u32) << 8)
}

/// A `tenants` x 34-rule policy at `version`, after `changes` single-rule
/// changes: consecutive values of `changes` differ in exactly one rule.
pub fn policy_spec(version: u64, tenants: u32, changes: u64) -> PolicySpec {
    let specs = (0..tenants)
        .map(|t| {
            let mut rules = Vec::with_capacity(RULES_PER_TENANT);
            for i in 0..CIDR_DENIES {
                let toggled = slot_toggled(i * tenants as usize + t as usize, changes, tenants);
                rules.push(
                    PolicyRule::deny().with_source_cidr(Cidr::new(cidr_base(i, toggled), 24)),
                );
            }
            rules.push(
                PolicyRule::deny()
                    .with_ports(HTTP_PORT, HTTP_PORT)
                    .with_method("DELETE")
                    .with_path_prefix("/admin"),
            );
            rules.push(PolicyRule::allow().with_ports(1, u16::MAX));
            TenantPolicy {
                tenant: TenantId(t + 1),
                vpc: VpcId(t + 1),
                rules,
                default_action: PolicyVerdict::Deny,
            }
        })
        .collect();
    PolicySpec {
        version,
        tenants: specs,
    }
}

/// Shape of one data-path workload.
#[derive(Debug, Clone, Copy)]
pub struct DatapathParams {
    pub tenants: u32,
    pub services_per_tenant: u32,
    /// Prefix rules per service route table.
    pub route_rules: usize,
    /// Client connections in the working set.
    pub flows: usize,
    /// Distinct request byte strings (0 for the L4 workload).
    pub requests: usize,
    /// Request body size; 0 makes GETs.
    pub body_bytes: usize,
    /// Ops generated; the timed loop cycles through them.
    pub pool_ops: usize,
    /// One op in this many opens (or re-opens) its flow with `syn = true`.
    pub syn_every: usize,
    /// L4 fast path (stages 1, 2, 9, 11) instead of the full path.
    pub l4_only: bool,
    /// Ops per timed chunk.
    pub chunk_ops: usize,
}

/// One request byte string and the rule it must match.
#[derive(Debug, Clone)]
pub struct RequestBytes {
    pub wire: Vec<u8>,
    /// Index of the rule that must match; `None` when no rule does (404).
    pub rule: Option<usize>,
}

/// One op: which flow sends which request, and what must come out.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub flow: u32,
    /// Index into [`Inputs::requests`]; unused by the L4 workload.
    pub request: u32,
    pub syn: bool,
    /// Status the caller must see.
    pub status: u16,
}

/// Everything a data-path run consumes, plus what it is checked against.
pub struct Inputs {
    pub flows: Vec<Flow>,
    /// One 64 B data packet per flow (L4 workload only).
    pub packets: Vec<Packet>,
    pub requests: Vec<RequestBytes>,
    pub ops: Vec<Op>,
    /// Route rule names, by rule index.
    pub rule_names: Vec<String>,
    /// Backends each service is placed on, by service index.
    pub placement: Vec<Vec<BackendId>>,
}

/// A gateway wide enough that 1,024 services shuffle-shard onto distinct
/// backend triples, with bucket tables small enough to build 3,072 of them.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        azs: 2,
        backends_per_az: 16,
        shard_size: 3,
        buckets: 128,
        ..GatewayConfig::default()
    }
}

fn route_table(rule_names: &[String]) -> RouteTable {
    let mut table = RouteTable::new();
    for name in rule_names {
        table.push(RouteRule::new(
            name,
            RoutePredicate::prefix(&format!("/{name}/")),
            vec![
                WeightedTarget::new(TARGETS[0], 90),
                WeightedTarget::new(TARGETS[1], 10),
            ],
        ));
    }
    table
}

fn request_bytes(
    rng: &mut SimRng,
    rule: Option<usize>,
    rule_names: &[String],
    body: usize,
) -> Vec<u8> {
    let prefix = match rule {
        Some(i) => rule_names[i].as_str(),
        None => "nowhere",
    };
    let id = format!("{:016x}{:016x}", rng.u64(), rng.u64());
    let req = if body == 0 {
        Request::get(&format!("/{prefix}/items/{}?limit=20", rng.index(100_000)))
    } else {
        let bytes: Vec<u8> = (0..body).map(|_| rng.index(256) as u8).collect();
        Request::post(&format!("/{prefix}/upload/{}", rng.index(100_000)), bytes)
            .with_header("Content-Type", "application/octet-stream")
    };
    req.with_header("Host", "orders.tenant.mesh.internal")
        .with_header("X-Request-Id", &id)
        .encode()
        .to_vec()
}

/// Build the world and the inputs of one data-path workload from `seed`.
pub fn datapath(p: &DatapathParams, seed: u64) -> (World, Inputs) {
    let mut rng = SimRng::seed(seed);
    let mut world = World::new(gateway_config(), rng.fork(1));

    let spec = policy_spec(1, p.tenants, 0);
    world.policy.stage(spec);
    let committed = world.policy.commit_staged(canal_sim::SimTime::ZERO);
    assert!(
        committed.is_ok(),
        "generated policy must compile: {committed:?}"
    );
    if let Some(set) = world.policy.compiled() {
        world.l4.install(set.clone());
    }

    let width = if p.route_rules > 10 { 2 } else { 1 };
    let rule_names: Vec<String> = (0..p.route_rules)
        .map(|i| format!("r{i:0width$}"))
        .collect();
    let n_services = (p.tenants * p.services_per_tenant) as usize;
    let mut placement = Vec::with_capacity(n_services);
    for s in 0..n_services as u32 {
        let gid = GlobalServiceId::compose(
            TenantId(s / p.services_per_tenant + 1),
            ServiceId(s % p.services_per_tenant),
        );
        let allowed: Vec<u64> = (0..IDENTITIES_PER_SERVICE)
            .map(|k| 1_000 + u64::from(s) * IDENTITIES_PER_SERVICE + k)
            .collect();
        let mut authz = AuthzPolicy::default_deny();
        authz.push(AuthzRule::allow(&allowed, ""));
        let engine = L7Engine::new(route_table(&rule_names), authz);
        let idx = world.add_service(gid, engine);
        placement.push(world.gateway.backends_of(world.services[idx]));
    }

    // Flows: spread evenly over the services; the first 2% carry the
    // identity nobody allows.
    let denied_flows = if p.l4_only { 0 } else { (p.flows / 50).max(1) };
    let dst_port = if p.l4_only { L4_PORT } else { HTTP_PORT };
    let mut flows = Vec::with_capacity(p.flows);
    let mut packets = Vec::new();
    for f in 0..p.flows {
        let service = f % n_services;
        let tenant = TenantId(service as u32 / p.services_per_tenant + 1);
        let vpc = VpcId(tenant.raw());
        let src = VpcAddr::from_ip(vpc, 0x0A00_0000 + f as u32);
        let sport = 1_024 + (f % 60_000) as u16;
        let tuple = FiveTuple::tcp(
            Endpoint::new(src, sport),
            Endpoint::new(VpcAddr::new(vpc, 10, 9, 9, 9), dst_port),
        );
        let identity = if f < denied_flows {
            DENIED_IDENTITY
        } else {
            1_000 + service as u64 * IDENTITIES_PER_SERVICE + rng.index(8) as u64
        };
        flows.push(Flow {
            tuple,
            l4: L4Ctx {
                tenant,
                vpc,
                src_ip: src.ip,
                dst_port,
                identity,
            },
            service,
            pod: PodId((f % 256) as u32),
        });
        if p.l4_only {
            let payload: Vec<u8> = (0..64).map(|_| rng.index(256) as u8).collect();
            let mut pkt = Packet::data(tuple, payload);
            pkt.service_tag = Some(world.services[service]);
            packets.push(pkt);
        }
    }

    // Requests: the matched rule is uniform over the table; the last 1%
    // match no rule.
    let unrouted = if p.requests == 0 {
        0
    } else {
        (p.requests / 100).max(1)
    };
    let requests: Vec<RequestBytes> = (0..p.requests)
        .map(|r| {
            let rule = (r < p.requests - unrouted).then(|| rng.index(p.route_rules));
            RequestBytes {
                wire: request_bytes(&mut rng, rule, &rule_names, p.body_bytes),
                rule,
            }
        })
        .collect();

    // Ops in fixed proportions (2% denied identity, 1% no route, one syn in
    // `syn_every`), then shuffled so the classes interleave.
    let routed = p.requests - unrouted;
    let mut ops: Vec<Op> = (0..p.pool_ops)
        .map(|k| {
            let syn = k % p.syn_every == 0;
            if p.l4_only {
                return Op {
                    flow: rng.index(p.flows) as u32,
                    request: 0,
                    syn,
                    status: 200,
                };
            }
            match k % 100 {
                0 | 1 => Op {
                    flow: rng.index(denied_flows) as u32,
                    request: rng.index(routed) as u32,
                    syn,
                    status: 403,
                },
                2 => Op {
                    flow: (denied_flows + rng.index(p.flows - denied_flows)) as u32,
                    request: (routed + rng.index(unrouted)) as u32,
                    syn,
                    status: 404,
                },
                _ => Op {
                    flow: (denied_flows + rng.index(p.flows - denied_flows)) as u32,
                    request: rng.index(routed) as u32,
                    syn,
                    status: 200,
                },
            }
        })
        .collect();
    rng.shuffle(&mut ops);

    (
        world,
        Inputs {
            flows,
            packets,
            requests,
            ops,
            rule_names,
            placement,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_policy::CompiledPolicySet;

    #[test]
    fn consecutive_policy_versions_differ_in_one_rule() {
        for changes in [0, 1, 255, 256, 300] {
            let a = policy_spec(1, 8, changes);
            let b = policy_spec(2, 8, changes + 1);
            let differing: usize = a
                .tenants
                .iter()
                .zip(&b.tenants)
                .map(|(x, y)| x.rules.iter().zip(&y.rules).filter(|(r, s)| r != s).count())
                .sum();
            assert_eq!(differing, 1, "after {changes} changes");
            assert!(a.tenants.iter().all(|t| t.rules.len() == RULES_PER_TENANT));
            assert!(CompiledPolicySet::compile(&a).is_ok());
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let p = DatapathParams {
            tenants: 2,
            services_per_tenant: 2,
            route_rules: 3,
            flows: 64,
            requests: 100,
            body_bytes: 0,
            pool_ops: 400,
            syn_every: 8,
            l4_only: false,
            chunk_ops: 100,
        };
        let (_, a) = datapath(&p, 9);
        let (_, b) = datapath(&p, 9);
        let (_, c) = datapath(&p, 10);
        assert!(a
            .requests
            .iter()
            .zip(&b.requests)
            .all(|(x, y)| x.wire == y.wire));
        assert!(a
            .ops
            .iter()
            .zip(&b.ops)
            .all(|(x, y)| (x.flow, x.request) == (y.flow, y.request)));
        assert!(a
            .requests
            .iter()
            .zip(&c.requests)
            .any(|(x, y)| x.wire != y.wire));
        assert_eq!(a.ops.iter().filter(|o| o.status == 403).count(), 8);
        assert_eq!(a.ops.iter().filter(|o| o.status == 404).count(), 4);
    }
}
